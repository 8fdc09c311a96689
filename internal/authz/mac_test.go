package authz

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"lwfs/internal/authn"
	"lwfs/internal/sim"
)

// macService is a Service with only what signing and checking read.
func macService() *Service {
	return &Service{
		k:      sim.NewKernel(),
		mac:    authn.NewMAC([]byte("authz-service-instance-key")),
		issued: make(map[uint64]*capRecord),
	}
}

// The service's one reused HMAC signs what a fresh hmac.New over the same
// fields signs, so capabilities keep their signatures.
func TestSignMatchesAFreshHMAC(t *testing.T) {
	s := macService()
	for _, c := range []Capability{
		{Container: 1, Op: OpWrite, ID: 1, Expires: 5},
		{Container: 1 << 40, Op: OpRead, ID: 77, Expires: sim.MaxTime},
		{},
	} {
		ref := hmac.New(sha256.New, []byte("authz-service-instance-key"))
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(c.Container))
		ref.Write(buf[:])
		ref.Write([]byte{byte(c.Op)})
		binary.BigEndian.PutUint64(buf[:], c.ID)
		ref.Write(buf[:])
		binary.BigEndian.PutUint64(buf[:], uint64(c.Expires))
		ref.Write(buf[:])
		if got, want := s.sign(c), ref.Sum(nil); string(got[:]) != string(want) {
			t.Errorf("%+v: sign %x, hmac.New %x", c, got, want)
		}
	}
}
