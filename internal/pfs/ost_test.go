package pfs

import (
	"errors"
	"io/fs"
	"testing"

	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
)

// TestOSTRefusesNegativeOffset sends the OST a raw write request for a
// negative offset, with its bytes exposed as a client would: the server
// refuses it before it creates the object or pulls a byte.
func TestOSTRefusesNegativeOffset(t *testing.T) {
	r := testrig.New(3)
	dev := osd.NewDevice(r.K, "ost0", osd.DefaultDiskParams())
	o := StartOST(r.Eps[1], dev, 30, storage.DefaultConfig())
	ep := r.Eps[2]
	r.Go("client", func(p *sim.Proc) {
		bits := portals.MatchBits(ep.NextToken())
		slot := ep.Expose(clientDataPortal, bits, netsim.SyntheticPayload(4096))
		defer slot.Close()
		tgt := o.Target()
		_, err := portals.Invoke(r.Caller(2), p, tgt.Node, tgt.Port, opOSTWrite, &ostWriteReq{
			Obj: 7, Off: -4096, Len: 4096, Bits: bits, DataPortal: clientDataPortal, ClientID: 1,
		}, pfsReqSize, pfsRespSize)
		if !errors.Is(err, fs.ErrInvalid) {
			t.Errorf("write at -4096: %v, want fs.ErrInvalid", err)
		}
		if _, err := dev.Stat(7); !errors.Is(err, osd.ErrNoObject) {
			t.Errorf("refused write left object 7 behind (stat: %v)", err)
		}
	})
	r.Run(t)
}
