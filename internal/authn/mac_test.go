package authn

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"
)

// A reused MAC signs what a fresh hmac.New signs, message after message, a
// shorter one after a longer: login tokens are the bytes they always were.
func TestMACMatchesAFreshHMAC(t *testing.T) {
	key := []byte("authn-service-instance-key")
	m := NewMAC(key)
	for nonce, user := range []string{"app", strings.Repeat("u", 200), "", "root"} {
		m.Msg = binary.BigEndian.AppendUint64(append(m.Msg[:0], user...), uint64(nonce+1))
		got := m.Sum()
		ref := hmac.New(sha256.New, key)
		ref.Write([]byte(user))
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(nonce+1))
		ref.Write(buf[:])
		if want := ref.Sum(nil); string(got[:]) != string(want) {
			t.Errorf("user %q nonce %d: sum %x, hmac.New %x", user, nonce+1, got, want)
		}
	}
}
