package stripe_test

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
)

// testLayout builds an m-object layout with unit u (refs are synthetic; the
// planner never dereferences them).
func testLayout(m int, u int64) stripe.Layout {
	l := stripe.Layout{Unit: u}
	for i := 0; i < m; i++ {
		l.Objs = append(l.Objs, storage.ObjRef{
			Node: netsim.NodeID(i + 1),
			Port: portals.Index(10),
			ID:   osd.ObjectID(100 + i),
		})
	}
	return l
}

// pieces lists a request's pieces.
func pieces(r stripe.Request) []stripe.Piece { return slices.Collect(r.Pieces) }

// checkPlan verifies the invariants every plan must hold: pieces tile the
// file range exactly once, each request's extent is contiguous in object
// space and equals its pieces, and piece↔object math agrees with Locate.
func checkPlan(t *testing.T, l stripe.Layout, off, length int64, reqs []stripe.Request) {
	t.Helper()
	covered := make(map[int64]bool)
	for _, r := range reqs {
		if r.Obj < 0 || r.Obj >= len(l.Objs) {
			t.Fatalf("request names object %d of %d", r.Obj, len(l.Objs))
		}
		var sum int64
		next := r.Off
		for i, pc := range pieces(r) {
			if i == 0 && pc.FileOff != r.FileOff {
				t.Fatalf("request starts at file byte %d, its first piece at %d", r.FileOff, pc.FileOff)
			}
			if pc.ObjOff != next {
				t.Fatalf("object extent not contiguous: piece at %d, want %d", pc.ObjOff, next)
			}
			obj, objOff := l.Locate(pc.FileOff)
			if obj != r.Obj || objOff != pc.ObjOff {
				t.Fatalf("piece fileOff=%d maps to (%d,%d), plan says (%d,%d)",
					pc.FileOff, obj, objOff, r.Obj, pc.ObjOff)
			}
			for b := pc.FileOff; b < pc.FileOff+pc.Len; b++ {
				if covered[b] {
					t.Fatalf("file byte %d covered twice", b)
				}
				covered[b] = true
			}
			next += pc.Len
			sum += pc.Len
		}
		if sum != r.Len {
			t.Fatalf("request len %d != piece sum %d", r.Len, sum)
		}
	}
	for b := off; b < off+length; b++ {
		if !covered[b] {
			t.Fatalf("file byte %d not covered", b)
		}
	}
}

func TestPlanCoalescesToOneRequestPerObject(t *testing.T) {
	l := testLayout(4, 1024)
	// 16 full units: every object gets 4 units, coalesced into one extent.
	reqs := l.Plan(0, 16*1024)
	if len(reqs) != 4 {
		t.Fatalf("want 4 requests (one per object), got %d", len(reqs))
	}
	for i, r := range reqs {
		if r.Obj != i {
			t.Errorf("request %d on object %d, want first-touch order", i, r.Obj)
		}
		if r.Off != 0 || r.Len != 4*1024 {
			t.Errorf("object %d extent [%d,+%d), want [0,+4096)", r.Obj, r.Off, r.Len)
		}
		if n := len(pieces(r)); n != 4 {
			t.Errorf("object %d has %d pieces, want 4", r.Obj, n)
		}
	}
	checkPlan(t, l, 0, 16*1024, reqs)
}

// Guard test (CI): the planner must emit at most one request per object for
// any contiguous range — the property that turns M×k per-unit RPCs into at
// most M coalesced ones.
func TestPlanGuardAtMostOneRequestPerObject(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(7)
		u := int64(1 + rng.Intn(2048))
		l := testLayout(m, u)
		off := int64(rng.Intn(50_000))
		length := int64(1 + rng.Intn(60_000))
		reqs := l.Plan(off, length)
		perObj := make(map[int]int)
		for _, r := range reqs {
			perObj[r.Obj]++
		}
		for obj, n := range perObj {
			if n > 1 {
				t.Fatalf("m=%d u=%d off=%d len=%d: object %d got %d requests",
					m, u, off, length, obj, n)
			}
		}
		if len(reqs) > m {
			t.Fatalf("m=%d u=%d off=%d len=%d: %d requests for %d objects",
				m, u, off, length, len(reqs), m)
		}
		checkPlan(t, l, off, length, reqs)
	}
}

// unitsOf lists UnitAt's requests for every stripe unit [off, off+length)
// touches, in file order.
func unitsOf(l stripe.Layout, off, length int64) []stripe.Request {
	var units []stripe.Request
	for i := range int((off+length-1)/l.Unit - off/l.Unit + 1) {
		units = append(units, l.UnitAt(off, length, i))
	}
	return units
}

// Guard test (CI): UnitAt gives one single-piece request per stripe unit
// touched, in file order, and their pieces are exactly Plan's — the two plans
// differ only in coalescing.
func TestUnitAtOnePiecePerUnitInFileOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		l := testLayout(1+rng.Intn(7), int64(1+rng.Intn(2048)))
		off, length := int64(rng.Intn(50_000)), int64(1+rng.Intn(60_000))
		units := unitsOf(l, off, length)
		var got []stripe.Piece
		next := off
		for _, r := range units {
			pcs := pieces(r)
			if len(pcs) != 1 || pcs[0] != (stripe.Piece{FileOff: next, ObjOff: r.Off, Len: r.Len}) {
				t.Fatalf("m=%d u=%d off=%d len=%d: request %+v is not the unit at %d", l.Width(), l.Unit, off, length, r, next)
			}
			got = append(got, pcs[0])
			next += r.Len
		}
		checkPlan(t, l, off, length, units)
		var want []stripe.Piece
		for _, r := range l.Plan(off, length) {
			want = append(want, pieces(r)...)
		}
		slices.SortFunc(want, func(a, b stripe.Piece) int { return cmp.Compare(a.FileOff, b.FileOff) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("m=%d u=%d off=%d len=%d: UnitAt pieces differ from Plan's", l.Width(), l.Unit, off, length)
		}
	}
}

func TestPlanOffsetOnStripeBoundary(t *testing.T) {
	l := testLayout(3, 100)
	// Starts exactly on unit 3's boundary (object 0, second slot).
	reqs := l.Plan(300, 250)
	checkPlan(t, l, 300, 250, reqs)
	if len(reqs) != 3 {
		t.Fatalf("got %d requests, want 3", len(reqs))
	}
	first := reqs[0]
	if first.Obj != 0 || first.Off != 100 || first.FileOff != 300 {
		t.Fatalf("boundary start planned as obj=%d off=%d", first.Obj, first.Off)
	}
	// Ends exactly on a boundary.
	reqs = l.Plan(0, 300)
	checkPlan(t, l, 0, 300, reqs)
	for _, r := range reqs {
		if r.Len != 100 {
			t.Fatalf("full-unit request has len %d", r.Len)
		}
	}
}

func TestPlanSmallerThanOneUnit(t *testing.T) {
	l := testLayout(4, 1024)
	reqs := l.Plan(100, 50) // inside unit 0
	if len(reqs) != 1 || reqs[0].Obj != 0 || reqs[0].Off != 100 || reqs[0].Len != 50 {
		t.Fatalf("sub-unit plan: %+v", reqs)
	}
	// Sub-unit transfer crossing one boundary touches exactly two objects.
	reqs = l.Plan(1000, 100)
	checkPlan(t, l, 1000, 100, reqs)
	if len(reqs) != 2 || reqs[0].Obj != 0 || reqs[1].Obj != 1 {
		t.Fatalf("boundary-crossing sub-unit plan: %+v", reqs)
	}
	if reqs[0].Len != 24 || reqs[1].Len != 76 {
		t.Fatalf("split %d/%d, want 24/76", reqs[0].Len, reqs[1].Len)
	}
}

func TestPlanSingleObjectDegenerate(t *testing.T) {
	l := testLayout(1, 512)
	// Every unit lands on the only object; the plan must still be ONE
	// contiguous request, not one per unit.
	reqs := l.Plan(100, 10_000)
	if len(reqs) != 1 {
		t.Fatalf("single-object layout planned %d requests", len(reqs))
	}
	r := reqs[0]
	if r.Obj != 0 || r.Off != 100 || r.Len != 10_000 {
		t.Fatalf("degenerate request: %+v", r)
	}
	checkPlan(t, l, 100, 10_000, reqs)
}

func TestPlanEmptyAndInvalid(t *testing.T) {
	l := testLayout(2, 1024)
	if reqs := l.Plan(0, 0); reqs != nil {
		t.Fatalf("zero-length plan: %v", reqs)
	}
	if reqs := l.Plan(10, -5); reqs != nil {
		t.Fatalf("negative-length plan: %v", reqs)
	}
	if reqs := (stripe.Layout{}).Plan(0, 100); reqs != nil {
		t.Fatalf("zero layout plan: %v", reqs)
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	l := testLayout(3, 64)
	off := int64(37)
	data := make([]byte, 1000)
	rng := rand.New(rand.NewSource(7))
	rng.Read(data)
	payload := netsim.BytesPayload(data)
	reqs := l.Plan(off, int64(len(data)))

	// Gather each request, then scatter everything back: identity.
	j := netsim.Joiner{Size: int64(len(data))}
	for _, r := range reqs {
		got := r.Gather(off, payload)
		if got.Size != r.Len || int64(len(got.Data)) != r.Len {
			t.Fatalf("gather size %d/%d, want %d", got.Size, len(got.Data), r.Len)
		}
		r.Scatter(&j, off, got)
	}
	if out := j.Payload().Data; !reflect.DeepEqual(out, data) {
		t.Fatal("gather→scatter did not round-trip")
	}

	// Synthetic payloads stay synthetic.
	for _, r := range reqs {
		got := r.Gather(off, netsim.SyntheticPayload(int64(len(data))))
		if got.Data != nil || got.Size != r.Len {
			t.Fatalf("synthetic gather: %+v", got)
		}
	}
}

// A request of one piece is contiguous in the file: Gather hands back the
// caller's bytes themselves, not a copy.
func TestGatherSinglePieceDoesNotCopy(t *testing.T) {
	l := testLayout(3, 64)
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	const off = 70 // [70,170): the tail of unit 1 and the head of unit 2
	reqs := l.Plan(off, int64(len(data)))
	if len(reqs) != 2 {
		t.Fatalf("%d requests, want 2", len(reqs))
	}
	for _, r := range reqs {
		if len(pieces(r)) != 1 {
			t.Fatalf("request %+v: want one piece", r)
		}
		got := r.Gather(off, netsim.BytesPayload(data))
		at := r.FileOff - off
		if got.Size != r.Len || int64(len(got.Data)) != r.Len || &got.Data[0] != &data[at] {
			t.Fatalf("request %+v: gathered %d bytes, aliasing data[%d]: %v", r, len(got.Data), at, &got.Data[0] == &data[at])
		}
	}
}

func TestScatterShortObjectRead(t *testing.T) {
	l := testLayout(2, 100)
	reqs := l.Plan(0, 400) // two units per object
	j := netsim.Joiner{Size: 400}
	j.Add(0, netsim.BytesPayload(bytes.Repeat([]byte{0xEE}, 400)))
	for _, r := range reqs {
		// The object returned only half the extent (EOF mid-request).
		short := make([]byte, r.Len/2)
		for i := range short {
			short[i] = byte(r.Obj + 1)
		}
		r.Scatter(&j, 0, netsim.BytesPayload(short))
	}
	out := j.Payload().Data
	// First unit of each object arrived, second did not.
	for i := 0; i < 100; i++ {
		if out[i] != 1 || out[100+i] != 2 {
			t.Fatalf("byte %d: first units should be filled", i)
		}
		if out[200+i] != 0xEE || out[300+i] != 0xEE {
			t.Fatalf("byte %d: short read overwrote unreturned bytes", 200+i)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	l := testLayout(4, 1<<20)
	l.Size = 123_456_789
	got, err := stripe.Decode(l.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatalf("decode mismatch:\n got %+v\nwant %+v", got, l)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"size x\nstripeunit 4\n",
		"size 10\nstripeunit 4\nobj nope\n",
		"short",
	} {
		if _, err := stripe.Decode([]byte(bad)); err == nil {
			t.Fatalf("decoded garbage %q", bad)
		}
	}
}

func TestLocateMatchesRoundRobin(t *testing.T) {
	l := testLayout(3, 10)
	cases := []struct {
		off    int64
		obj    int
		objOff int64
	}{
		{0, 0, 0}, {9, 0, 9}, {10, 1, 0}, {25, 2, 5},
		{30, 0, 10}, {59, 2, 19}, {60, 0, 20},
	}
	for _, c := range cases {
		obj, objOff := l.Locate(c.off)
		if obj != c.obj || objOff != c.objOff {
			t.Errorf("Locate(%d) = (%d,%d), want (%d,%d)", c.off, obj, objOff, c.obj, c.objOff)
		}
	}
}

func TestTargetsDedup(t *testing.T) {
	l := testLayout(3, 10)
	// Two objects on the same server: Targets dedups, preserving order.
	l.Objs = append(l.Objs, storage.ObjRef{Node: 1, Port: 10, ID: 999})
	ts := l.Targets()
	if len(ts) != 3 {
		t.Fatalf("got %d targets, want 3: %v", len(ts), ts)
	}
	if ts[0].Node != 1 || ts[1].Node != 2 || ts[2].Node != 3 {
		t.Fatalf("target order: %v", ts)
	}
}

// plannedReq is a request spelled out with its pieces listed.
type plannedReq struct {
	Obj      int
	Off, Len int64
	Pieces   []stripe.Piece
}

func spelledOut(reqs []stripe.Request) []plannedReq {
	var out []plannedReq
	for _, r := range reqs {
		out = append(out, plannedReq{Obj: r.Obj, Off: r.Off, Len: r.Len, Pieces: pieces(r)})
	}
	return out
}

// planReference is the planner as first written — walk the range unit by
// unit, open a request the first time a column is touched, extend it while
// the object extent stays contiguous. Plan computes the same thing by
// arithmetic; this is what it is checked against.
func planReference(l stripe.Layout, off, length int64) []plannedReq {
	if length <= 0 || l.Unit <= 0 || l.Width() <= 0 {
		return nil
	}
	var reqs []plannedReq
	last := make([]int, l.Width())
	for i := range last {
		last[i] = -1
	}
	for cur := off; cur < off+length; {
		idx, objOff := l.Locate(cur)
		n := l.Unit - cur%l.Unit
		if n > off+length-cur {
			n = off + length - cur
		}
		pc := stripe.Piece{FileOff: cur, ObjOff: objOff, Len: n}
		if li := last[idx]; li >= 0 && reqs[li].Off+reqs[li].Len == objOff {
			reqs[li].Pieces = append(reqs[li].Pieces, pc)
			reqs[li].Len += n
		} else {
			last[idx] = len(reqs)
			reqs = append(reqs, plannedReq{Obj: idx, Off: objOff, Len: n, Pieces: []stripe.Piece{pc}})
		}
		cur += n
	}
	return reqs
}

func TestPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		l := testLayout(1+rng.Intn(9), int64(1+rng.Intn(512)))
		off, length := int64(rng.Intn(20_000)), int64(1+rng.Intn(20_000))
		if got, want := spelledOut(l.Plan(off, length)), planReference(l, off, length); !reflect.DeepEqual(got, want) {
			t.Fatalf("m=%d u=%d off=%d len=%d:\n got %+v\nwant %+v", l.Width(), l.Unit, off, length, got, want)
		}
	}
}

// Plan makes one allocation whatever the width and however many units the
// range spans, and UnitAt none: a request describes its pieces, it does not
// list them.
func TestPlanAllocatesPerCallNotPerColumn(t *testing.T) {
	for _, m := range []int{1, 4, 64} {
		l := testLayout(m, 1024)
		length := int64(3*m+1) * 1024
		if n := testing.AllocsPerRun(100, func() { l.Plan(512, length) }); n > 1 {
			t.Errorf("width %d: Plan makes %.0f allocations, want 1", m, n)
		}
		if n := testing.AllocsPerRun(100, func() { l.UnitAt(512, length, 3*m) }); n != 0 {
			t.Errorf("width %d: UnitAt makes %.0f allocations, want 0", m, n)
		}
	}
	reqs := testLayout(4, 1024).Plan(0, 16*1024)
	buf := make([]byte, 16*1024)
	j := netsim.Joiner{Size: int64(len(buf))}
	j.Add(0, netsim.BytesPayload(buf[:1])) // the joiner's buffer, made once
	if n := testing.AllocsPerRun(100, func() { reqs[1].Scatter(&j, 0, netsim.BytesPayload(buf[:4096])) }); n != 0 {
		t.Errorf("Scatter makes %.0f allocations, want 0", n)
	}
}
