//go:build !race

package authz

import "testing"

// Checking a valid capability, which every storage-server cache miss asks
// for, allocates nothing: the service signs with its one reused HMAC. (Not
// under the race detector, like the other allocation guards.)
func TestCheckCapAllocatesNothing(t *testing.T) {
	s := macService()
	c := Capability{Container: 3, Op: OpWrite, ID: 9, Expires: 1 << 40}
	c.Sig = s.sign(c)
	s.issued[c.ID] = &capRecord{cap: c}
	if err := s.checkCap(c); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { s.checkCap(c) }); n != 0 {
		t.Errorf("checkCap of a valid capability allocated %.0f times", n)
	}
}
