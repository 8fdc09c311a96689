package core_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/netsim"
	"lwfs/internal/osd"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
	"lwfs/internal/txn"
)

// TestFailoverPredicate pins the rule: only the signature of a server that
// stopped answering falls over; whatever a live server said stays hard.
func TestFailoverPredicate(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"timeout", portals.ErrRPCTimeout, true},
		{"circuit open", portals.ErrCircuitOpen, true},
		{"wrapped timeout", fmt.Errorf("stripe/read[3]: %w", portals.ErrRPCTimeout), true},
		{"nil", nil, false},
		{"overload", portals.ErrOverload, false},
		{"no object", osd.ErrNoObject, false},
		{"bad layout", stripe.ErrBadLayout, false},
	} {
		if got := portals.FailStop(tc.err); got != tc.want {
			t.Errorf("FailStop(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFailoverRotate: a walk from start visits "start, start+1, …" modulo the
// list — the order a copy of the list rotated left by start gives — for
// every start of either sign, and yields each candidate's index in the list.
func TestFailoverRotate(t *testing.T) {
	s := []int{0, 1, 2, 3}
	n := len(s)
	rotated := func(start int) []int {
		r := (start%n + n) % n
		return slices.Concat(s[r:], s[:r])
	}
	visits := func(start int) (order []int) {
		for i, c := range core.Candidates(s, start, nil, nil) {
			if s[i] != c {
				t.Fatalf("start %d: yielded index %d for candidate %d", start, i, c)
			}
			order = append(order, c)
		}
		return order
	}
	walks := func(start int) (order []int) {
		core.Walk(s, start, n, nil, nil, func(c int) error { order = append(order, c); return nil }, nil) //nolint:errcheck
		return order
	}
	for start := -2 * n; start <= 2*n; start++ {
		want := rotated(start)
		if got := visits(start); !reflect.DeepEqual(got, slices.Concat(want, want)) {
			t.Errorf("Candidates from %d = %v, want %v twice", start, got, want)
		}
		if got := walks(start); !reflect.DeepEqual(got, want) {
			t.Errorf("Walk from %d = %v, want %v", start, got, want)
		}
	}
	for start, want := range map[int][]int{0: {0, 1, 2, 3}, 1: {1, 2, 3, 0}, 4: {0, 1, 2, 3}, 7: {3, 0, 1, 2},
		// Any int is a start: a hash may be negative, a sum may have wrapped.
		-1: {3, 0, 1, 2}, -6: {2, 3, 0, 1}, math.MinInt64: {0, 1, 2, 3}, math.MaxInt64: {3, 0, 1, 2}} {
		if got := walks(start); !reflect.DeepEqual(got, want) {
			t.Errorf("Walk from %d = %v, want %v", start, got, want)
		}
	}
	if !reflect.DeepEqual(s, []int{0, 1, 2, 3}) {
		t.Errorf("a walk moved its candidates: %v", s)
	}
	for range core.Candidates([]int(nil), 3, nil, nil) {
		t.Error("an empty list yielded a candidate")
	}
}

// A healthy placement walk over a large cluster allocates nothing: no copy
// of the server list, whatever the start.
func TestFailoverWalkAllocatesNothing(t *testing.T) {
	servers := make([]storage.Target, 256)
	for i := range servers {
		servers[i] = storage.Target{Node: netsim.NodeID(i + 1), Port: 1}
	}
	var placed []storage.Target
	start := 0
	n := testing.AllocsPerRun(100, func() {
		start += 97
		placed = placed[:0]
		if err := core.Walk(servers, start, 3,
			func(tg storage.Target) bool { return tg.Node == 5 },
			func(tg storage.Target) bool { return slices.Contains(placed, tg) },
			func(tg storage.Target) error { placed = append(placed, tg); return nil },
			nil); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("a healthy walk over %d servers allocated %.0f times", len(servers), n)
	}
}

// TestFailoverServerIndex: Client.Server is the same modulus, so placement
// arithmetic on a negative or wrapped index stays in range.
func TestFailoverServerIndex(t *testing.T) {
	cl, l := smallCluster()
	defer cl.Close()
	c := cl.NewClient(l, 0)
	servers := c.Servers()
	for i, want := range map[int]int{0: 0, 5: 1, -1: 3, -6: 2, math.MinInt64: 0, math.MaxInt64: 3, math.MinInt64 + 1: 1} {
		if got := c.Server(i); got != servers[want] {
			t.Errorf("Server(%d) = %v, want server %d (%v)", i, got, want, servers[want])
		}
	}
}

// TestFailoverCandidateOrder: the order is "not avoided first, then
// everyone, never the excluded", decided as the walk reaches a candidate.
func TestFailoverCandidateOrder(t *testing.T) {
	in := func(set ...string) func(string) bool {
		return func(c string) bool { return slices.Contains(set, c) }
	}
	collect := func(cands []string, excluded, avoided func(string) bool, onVisit func(string)) (order []string, idx []int) {
		for i, c := range core.Candidates(cands, 0, excluded, avoided) {
			order, idx = append(order, c), append(idx, i)
			if onVisit != nil {
				onVisit(c)
			}
		}
		return order, idx
	}
	abcd := []string{"a", "b", "c", "d"}

	t.Run("avoided come second, excluded never", func(t *testing.T) {
		order, idx := collect(abcd, in("c"), in("a"), nil)
		if want := []string{"b", "d", "a", "b", "d"}; !reflect.DeepEqual(order, want) {
			t.Errorf("order = %v, want %v", order, want)
		}
		if want := []int{1, 3, 0, 1, 3}; !reflect.DeepEqual(idx, want) {
			t.Errorf("indices = %v, want %v", idx, want)
		}
	})
	t.Run("nil predicates exclude and avoid nothing", func(t *testing.T) {
		order, _ := collect(abcd[:2], nil, nil, nil)
		if want := []string{"a", "b", "a", "b"}; !reflect.DeepEqual(order, want) {
			t.Errorf("order = %v, want %v", order, want)
		}
	})
	t.Run("sets that change under the walk", func(t *testing.T) {
		// The consumer uses b (so it becomes avoided) and sees c fail (so it
		// becomes excluded) while the walk is running: the second pass
		// offers b again — doubling up — and never c.
		used, failed := map[string]bool{}, map[string]bool{}
		order, _ := collect(abcd,
			func(c string) bool { return failed[c] },
			func(c string) bool { return used[c] },
			func(c string) {
				switch c {
				case "b":
					used[c] = true
				case "c":
					failed[c] = true
				}
			})
		if want := []string{"a", "b", "c", "d", "a", "b", "d"}; !reflect.DeepEqual(order, want) {
			t.Errorf("order = %v, want %v", order, want)
		}
	})
	t.Run("stops when the consumer does", func(t *testing.T) {
		n := 0
		for range core.Candidates(abcd, 0, nil, nil) {
			if n++; n == 2 {
				break
			}
		}
		if n != 2 {
			t.Errorf("visited %d candidates after break at 2", n)
		}
	})
}

// TestFailoverWalk: k successes end the walk; a fail-stop candidate is
// reported once and not offered again; a hard error is returned as is and
// ends the walk on the spot; running out is its own, recognisable error.
func TestFailoverWalk(t *testing.T) {
	timeout := fmt.Errorf("write: %w", portals.ErrRPCTimeout)
	hard := fmt.Errorf("read: %w", osd.ErrNoObject)
	for _, tc := range []struct {
		name       string
		k          int
		excluded   string
		avoided    string
		outcome    map[string]error // per candidate; absent = success
		wantTried  []string
		wantFailed []string
		wantErr    error // nil, hard (identity), or core.ErrRanOut (errors.Is)
	}{
		{name: "stops at k", k: 2,
			wantTried: []string{"a", "b"}},
		{name: "k of zero tries nothing", k: 0},
		{name: "fail-stop moves on and is reported once", k: 2,
			outcome:   map[string]error{"a": timeout, "c": portals.ErrCircuitOpen},
			wantTried: []string{"a", "b", "c", "d"}, wantFailed: []string{"a", "c"}},
		{name: "hard error untouched, nothing tried after it", k: 3,
			outcome:   map[string]error{"a": timeout, "b": hard},
			wantTried: []string{"a", "b"}, wantFailed: []string{"a"}, wantErr: hard},
		{name: "avoided last, excluded never", k: 3, excluded: "b", avoided: "a",
			wantTried: []string{"c", "d", "a"}},
		{name: "second pass re-offers the used, not the failed", k: 5, avoided: "d",
			outcome:   map[string]error{"b": timeout},
			wantTried: []string{"a", "b", "c", "a", "c", "d"}, wantFailed: []string{"b"}},
		{name: "ran out after failures wraps the last one", k: 1,
			outcome:   map[string]error{"a": timeout, "b": timeout, "c": timeout, "d": timeout},
			wantTried: []string{"a", "b", "c", "d"}, wantFailed: []string{"a", "b", "c", "d"}, wantErr: core.ErrRanOut},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tried, failed []string
			is := func(s string) func(string) bool { return func(c string) bool { return c == s } }
			err := core.Walk([]string{"a", "b", "c", "d"}, 0, tc.k, is(tc.excluded), is(tc.avoided),
				func(c string) error {
					tried = append(tried, c)
					return tc.outcome[c]
				}, &failed)
			if !reflect.DeepEqual(tried, tc.wantTried) {
				t.Errorf("tried %v, want %v", tried, tc.wantTried)
			}
			if !reflect.DeepEqual(failed, tc.wantFailed) {
				t.Errorf("failed %v, want %v", failed, tc.wantFailed)
			}
			switch {
			case tc.wantErr == nil && err != nil:
				t.Errorf("err = %v, want nil", err)
			case tc.wantErr == hard && (err != hard || errors.Is(err, core.ErrRanOut)):
				t.Errorf("err = %v, want the hard error itself", err)
			case tc.wantErr == core.ErrRanOut && !(errors.Is(err, core.ErrRanOut) && portals.FailStop(err)):
				t.Errorf("err = %v, want ErrRanOut wrapping the last fail-stop error", err)
			}
		})
	}

	t.Run("ran out with every candidate excluded", func(t *testing.T) {
		err := core.Walk([]string{"a"}, 0, 1, func(string) bool { return true }, nil,
			func(string) error { t.Error("tried an excluded candidate"); return nil }, nil)
		if !errors.Is(err, core.ErrRanOut) || portals.FailStop(err) {
			t.Errorf("err = %v, want bare ErrRanOut", err)
		}
	})
}

// TestFailoverReadMirror: the first reachable mirror serves the read, the
// count of dead mirrors before it comes back, and a hard error on a live
// mirror is not masked by reading the next one.
func TestFailoverReadMirror(t *testing.T) {
	refs := []storage.ObjRef{{ID: 1}, {ID: 2}, {ID: 3}}
	reader := func(outcome map[osd.ObjectID]error, tried *[]osd.ObjectID) func(storage.ObjRef) (netsim.Payload, error) {
		return func(ref storage.ObjRef) (netsim.Payload, error) {
			*tried = append(*tried, ref.ID)
			if err := outcome[ref.ID]; err != nil {
				return netsim.Payload{}, err
			}
			return netsim.BytesPayload([]byte{byte(ref.ID)}), nil
		}
	}

	var tried []osd.ObjectID
	pl, skipped, err := core.ReadMirror(refs, reader(map[osd.ObjectID]error{1: portals.ErrRPCTimeout}, &tried))
	if err != nil || skipped != 1 || len(pl.Data) != 1 || pl.Data[0] != 2 {
		t.Errorf("fallback: payload %v skipped %d err %v, want mirror 2 after 1 skip", pl.Data, skipped, err)
	}
	if want := []osd.ObjectID{1, 2}; !reflect.DeepEqual(tried, want) {
		t.Errorf("fallback tried %v, want %v", tried, want)
	}

	tried = nil
	_, _, err = core.ReadMirror(refs, reader(map[osd.ObjectID]error{1: portals.ErrRPCTimeout, 2: osd.ErrNoObject}, &tried))
	if !errors.Is(err, osd.ErrNoObject) || errors.Is(err, core.ErrRanOut) {
		t.Errorf("fenced mirror: err = %v, want ErrNoObject, hard", err)
	}
	if want := []osd.ObjectID{1, 2}; !reflect.DeepEqual(tried, want) {
		t.Errorf("fenced mirror: tried %v, want %v (nothing after the hard error)", tried, want)
	}

	tried = nil
	all := map[osd.ObjectID]error{1: portals.ErrRPCTimeout, 2: portals.ErrCircuitOpen, 3: portals.ErrRPCTimeout}
	_, skipped, err = core.ReadMirror(refs, reader(all, &tried))
	if !errors.Is(err, core.ErrRanOut) || !portals.FailStop(err) || skipped != 3 || len(tried) != 3 {
		t.Errorf("all dead: err = %v skipped %d tried %v", err, skipped, tried)
	}
}

// TestFailoverPlacementDelistsOnlyEmptyDeadTargets pins the placement rule on
// three storage servers. B takes a provisional create and dies before the
// object is kept; A holds a kept object and dies after it; C survives.
// Deciding the transaction delists B only: B is sent no prepare and no
// abort, and on restart it resolves its provisional create by presumed
// abort. A stays enlisted, so Commit's prepare at A fails and the
// transaction aborts loudly instead of committing a ref the abort removes.
func TestFailoverPlacementDelistsOnlyEmptyDeadTargets(t *testing.T) {
	for _, decide := range []string{"commit", "abort"} {
		t.Run(decide, func(t *testing.T) {
			spec := cluster.DevCluster()
			spec.ComputeNodes = 1
			spec.ServersPerNode = 1
			cl := cluster.New(spec.WithServers(3))
			defer cl.Close()
			cl.RegisterUser("app", "s3cret")
			l := cl.DeployLWFS()
			c := cl.NewClient(l, 0)
			c.SetRetry(portals.RetryPolicy{MaxAttempts: 2, Timeout: 25 * time.Millisecond, Backoff: time.Millisecond}, 7)
			servers := c.Servers()
			a, b := servers[0], servers[1]
			sent := map[string]bool{} // "prepare@A", "abort@B", …
			cl.Net.SetTrace(func(_ sim.Time, m netsim.Message, event string) {
				body := portals.DescribeBody(m.Body)
				for name, tg := range map[string]storage.Target{"A": a, "B": b} {
					for _, kind := range []string{"prepare", "abort"} {
						if event == "tx" && m.To == tg.Node && strings.Contains(body, kind+"Req") {
							sent[kind+"@"+name] = true
						}
					}
				}
			})
			cl.Spawn("app", func(p *sim.Proc) {
				if err := c.Login(p, "app", "s3cret"); err != nil {
					t.Fatal(err)
				}
				cid, err := c.CreateContainer(p)
				if err != nil {
					t.Fatal(err)
				}
				caps, err := c.GetCaps(p, cid, authz.AllOps...)
				if err != nil {
					t.Fatal(err)
				}
				pl := &core.Placement{Tx: c.BeginTxn()}
				place := func(start int) {
					t.Helper()
					err := pl.Walk(servers, start, 1, nil, nil, func(tg storage.Target) error {
						ref, err := c.CreateObjectTxn(p, tg, caps, pl.Tx)
						if err != nil {
							return err
						}
						if tg == b {
							l.Servers[1].Crash()
						}
						if _, err := c.Write(p, ref, caps, 0, netsim.SyntheticPayload(4096)); err != nil {
							return err
						}
						pl.Kept = append(pl.Kept, ref)
						return nil
					})
					if err != nil {
						t.Fatalf("walk from %d: %v", start, err)
					}
				}
				place(1) // B: created, crashed, given up on; C keeps the object
				place(0) // A keeps an object
				l.Servers[0].Crash()
				place(0) // A given up on; C again
				if !pl.Dead(a) || !pl.Dead(b) || pl.Dead(servers[2]) {
					t.Fatalf("dead: A %v B %v C %v, want A and B", pl.Dead(a), pl.Dead(b), pl.Dead(servers[2]))
				}
				if decide == "commit" {
					if err := pl.Commit(p); !errors.Is(err, txn.ErrAborted) || !strings.Contains(err.Error(), fmt.Sprintf("prepare at node %d:", a.Node)) {
						t.Errorf("Commit = %v, want an abort at A's prepare", err)
					}
				} else if err := pl.Abort(p); err != nil {
					t.Errorf("Abort = %v", err)
				}
				want := map[string]bool{"prepare@A": true, "abort@A": true}
				if decide == "abort" {
					want = map[string]bool{"abort@A": true}
				}
				if !reflect.DeepEqual(sent, want) {
					t.Errorf("decision messages %v, want %v (none to B)", sent, want)
				}
				if removed, err := l.Servers[1].Restart(p); removed != 1 || err != nil {
					t.Errorf("B's restart removed %d objects (err %v), want its provisional create", removed, err)
				}
				if st := l.Servers[1].Participant().Status(pl.Tx.ID); st != txn.StatusAborted {
					t.Errorf("B resolved %v as %v, want aborted", pl.Tx.ID, st)
				}
			})
			run(t, cl)
		})
	}
}
