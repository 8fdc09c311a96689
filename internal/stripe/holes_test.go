package stripe_test

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lwfs/internal/netsim"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// holeLayout is a 4-column layout of the given scheme (2 copies under
// Replica) whose columns in holes are unallocated.
func holeLayout(scheme stripe.Scheme, holes ...int) stripe.Layout {
	l := stripe.Layout{Unit: 100, Scheme: scheme}
	n := 4
	switch scheme {
	case stripe.Replica:
		l.Copies, n = 2, 8
	case stripe.Parity:
		n = 5
	}
	for i := 0; i < n; i++ {
		l.Objs = append(l.Objs, storage.ObjRef{Node: netsim.NodeID(i + 1), Port: 10, ID: 7})
	}
	for _, col := range holes {
		for i := col; i < 4*max(l.Copies, 1); i += 4 {
			l.Objs[i] = storage.ObjRef{}
		}
	}
	return l
}

// Missing names every copy of every hole column a range touches, in the
// order the range touches the columns, and nothing when it touches none.
func TestMissingHoleColumns(t *testing.T) {
	for _, tc := range []struct {
		l         stripe.Layout
		off, n    int64
		want      []int
		name, why string
	}{
		{holeLayout(stripe.Raid0, 2, 3), 0, 200, nil, "raid0", "columns 0-1 only"},
		{holeLayout(stripe.Raid0, 2, 3), 150, 100, []int{2}, "raid0", "into column 2"},
		{holeLayout(stripe.Raid0, 2, 3), 350, 100, []int{3}, "raid0", "column 3 then column 0 of the next stripe"},
		{holeLayout(stripe.Raid0, 1, 3), 0, 1000, []int{1, 3}, "raid0", "every column"},
		{holeLayout(stripe.Replica, 2), 250, 10, []int{2, 6}, "replica", "both copies of column 2"},
		{holeLayout(stripe.Parity, 1), 50, 100, []int{1}, "parity", "never the parity object"},
		{holeLayout(stripe.Parity, 1), 0, 0, nil, "parity", "an empty range"},
	} {
		if got := tc.l.Missing(tc.off, tc.n); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s, %s: Missing(%d, %d) = %v, want %v", tc.name, tc.why, tc.off, tc.n, got, tc.want)
		}
	}
}

// The codec carries holes as "obj 0 0 0", whole columns at a time; column 0
// and the parity object are never holes, and only Encode's own bytes decode.
func TestDecodeHoles(t *testing.T) {
	for _, l := range []stripe.Layout{
		holeLayout(stripe.Raid0, 1, 2, 3),
		holeLayout(stripe.Replica, 3),
		holeLayout(stripe.Parity, 2),
	} {
		enc := l.Encode()
		if !bytes.Contains(enc, []byte("obj 0 0 0\n")) {
			t.Fatalf("%v: no hole line in\n%s", l.Scheme, enc)
		}
		got, err := stripe.Decode(enc)
		if err != nil || !reflect.DeepEqual(got, l) {
			t.Fatalf("%v: round trip = %+v, %v", l.Scheme, got, err)
		}
	}
	partial := holeLayout(stripe.Replica)
	partial.Objs[1] = storage.ObjRef{} // copy 0 of column 1 only
	col0 := holeLayout(stripe.Raid0, 0)
	parity := holeLayout(stripe.Parity)
	parity.Objs[4] = storage.ObjRef{}
	zeroID := holeLayout(stripe.Raid0)
	zeroID.Objs[2].ID = 0
	canon := string(holeLayout(stripe.Raid0, 1).Encode())
	for name, bad := range map[string][]byte{
		"partial replica hole": partial.Encode(),
		"column 0 hole":        col0.Encode(),
		"parity hole":          parity.Encode(),
		"object id 0":          zeroID.Encode(),
		"no final newline":     []byte(strings.TrimSuffix(canon, "\n")),
		"trailing blank line":  []byte(canon + "\n"),
		"signed number":        []byte(strings.Replace(canon, "size 0", "size +0", 1)),
		"trailing field":       []byte(strings.Replace(canon, "obj 0 0 0", "obj 0 0 0 0", 1)),
	} {
		if _, err := stripe.Decode(bad); !errors.Is(err, stripe.ErrBadLayout) {
			t.Errorf("%s: Decode(%q) = %v, want ErrBadLayout", name, bad, err)
		}
	}
}

// FuzzDecodeLayout: whatever Decode accepts re-encodes to the same bytes,
// validates, and keeps holes to whole columns other than column 0, with the
// parity object allocated.
func FuzzDecodeLayout(f *testing.F) {
	for _, l := range []stripe.Layout{
		holeLayout(stripe.Raid0),
		holeLayout(stripe.Raid0, 1, 3),
		holeLayout(stripe.Replica, 2),
		holeLayout(stripe.Parity, 1, 2),
	} {
		f.Add(l.Encode())
	}
	f.Add([]byte("size 10\nstripeunit 4\nobj 1 10 100\n"))
	f.Add([]byte("size 10\nstripeunit 4\nscheme replica 2\nobj 1 10 100\nobj 0 0 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := stripe.Decode(data)
		if err != nil {
			if !errors.Is(err, stripe.ErrBadLayout) {
				t.Fatalf("Decode error %v is not ErrBadLayout", err)
			}
			return
		}
		if enc := l.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %q, which re-encodes as %q", data, enc)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("accepted an invalid layout: %v", err)
		}
		w := l.Width()
		copies := 1
		if l.Scheme == stripe.Replica {
			copies = l.Copies
		}
		for col := 0; col < w; col++ {
			holes := 0
			for c := 0; c < copies; c++ {
				if stripe.IsHole(l.Objs[c*w+col]) {
					holes++
				}
			}
			if holes != 0 && (holes != copies || col == 0) {
				t.Fatalf("column %d: %d of %d copies are holes", col, holes, copies)
			}
		}
		if l.Scheme == stripe.Parity && stripe.IsHole(l.ParityObj()) {
			t.Fatal("accepted a parity hole")
		}
	})
}

// A parity file with a hole column: writes beside the hole keep parity
// right (the hole XORs as zeros), the hole reads as zeros and is no sync
// target, a write into it is refused, and a lost column reconstructs and
// rebuilds exactly while the hole stays a hole.
func TestHoleParityReadReconstructRebuild(t *testing.T) {
	cl, lw := engineCluster(4)
	c := cl.NewClient(lw, 0)
	c.SetRetry(redundRetry, 41)
	cl.Spawn("app", func(p *sim.Proc) {
		caps := appSetup(t, p, c)
		eng := stripe.NewEngine(c, caps, 0)
		const unit = 8 << 10
		l := makeRedundant(t, p, c, caps, stripe.Parity, 3, 0, unit)
		hole := l.Objs[1]
		l.Objs[1] = storage.ObjRef{}
		for _, tg := range l.Targets() {
			if tg == storage.TargetOf(hole) {
				t.Fatalf("Targets lists the hole's server: %v", l.Targets())
			}
		}
		if _, err := eng.WriteAt(p, l, unit, netsim.SyntheticPayload(10)); !errors.Is(err, stripe.ErrBadLayout) {
			t.Fatalf("write into a hole: %v, want ErrBadLayout", err)
		}
		// Column 0 fully, column 2 in part (a read-modify-write): file bytes
		// [unit, 2*unit) are the hole.
		rng := rand.New(rand.NewSource(42))
		data := make([]byte, 3*unit)
		rng.Read(data[:unit])
		rng.Read(data[2*unit : 2*unit+5000])
		if _, err := eng.WriteAt(p, l, 0, netsim.BytesPayload(data[:unit])); err != nil {
			t.Fatalf("write column 0: %v", err)
		}
		if _, err := eng.WriteAt(p, l, 2*unit, netsim.BytesPayload(data[2*unit:2*unit+5000])); err != nil {
			t.Fatalf("write column 2: %v", err)
		}
		l.Size = 2*unit + 5000
		data = data[:l.Size]
		got, err := eng.ReadAt(p, l, 0, l.Size)
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("healthy read: %v", err)
		}
		dead := storage.TargetOf(l.Objs[0])
		lw.Servers[0].Crash()
		got, err = eng.ReadAt(p, l, 0, l.Size)
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("degraded read across the hole: %v", err)
		}
		nl, err := stripe.NewRebuilder(eng).Rebuild(p, l, dead, c.Servers())
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if !stripe.IsHole(nl.Objs[1]) {
			t.Fatalf("rebuild allocated the hole: %v", nl.Objs)
		}
		got, err = eng.ReadAt(p, nl, 0, l.Size)
		if err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("post-rebuild read: %v", err)
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}
