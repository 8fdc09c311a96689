package naming_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"lwfs/internal/authn"
	"lwfs/internal/naming"
	"lwfs/internal/osd"
	"lwfs/internal/sim"
	"lwfs/internal/storage"
	"lwfs/internal/testrig"
	"lwfs/internal/txn"
)

// bootNaming starts the naming service (with a txn participant) on node 1.
func bootNaming(r *testrig.Rig) (*naming.Service, *txn.Participant) {
	dev := osd.NewDevice(r.K, "mdsdev", osd.DefaultDiskParams())
	part := txn.NewParticipant(r.Eps[1], dev, naming.TxnPortal)
	ac := authn.NewClient(r.Caller(1), r.Eps[0].Node())
	svc := naming.Start(r.Eps[1], ac, part)
	return svc, part
}

func login(t *testing.T, p *sim.Proc, r *testrig.Rig, node int) authn.Credential {
	cred, err := r.AuthnClient(node).Login(p, "alice", testrig.Secret("alice"))
	if err != nil {
		if t == nil {
			panic(err)
		}
		t.Fatalf("login: %v", err)
	}
	return cred
}

// create binds path to a single ref.
func create(nc *naming.Client, p *sim.Proc, cred authn.Credential, path string, r storage.ObjRef, id txn.ID) error {
	return nc.CreateRefs(p, cred, path, []storage.ObjRef{r}, id)
}

func ref(id uint64) storage.ObjRef {
	return storage.ObjRef{Node: 5, Port: 20, ID: osd.ObjectID(id)}
}

func TestCreateLookupRoundTrip(t *testing.T) {
	r := testrig.New(3)
	bootNaming(r)
	nc := naming.NewClient(r.Caller(2), r.Eps[1].Node())
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 2)
		if err := nc.Mkdir(p, cred, "/ckpt"); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := create(nc, p, cred, "/ckpt/step-100", ref(42), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		e, err := nc.Lookup(p, cred, "/ckpt/step-100")
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		if !reflect.DeepEqual(e.Refs, []storage.ObjRef{ref(42)}) || e.IsDir || e.Owner != "alice" {
			t.Fatalf("entry = %+v", e)
		}
	})
	r.Run(t)
}

func TestDuplicateAndMissingParent(t *testing.T) {
	r := testrig.New(3)
	bootNaming(r)
	nc := naming.NewClient(r.Caller(2), r.Eps[1].Node())
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 2)
		if err := create(nc, p, cred, "/a", ref(1), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		if err := create(nc, p, cred, "/a", ref(2), 0); !errors.Is(err, naming.ErrExists) {
			t.Errorf("duplicate: %v", err)
		}
		if err := create(nc, p, cred, "/no/dir/x", ref(3), 0); !errors.Is(err, naming.ErrNotFound) {
			t.Errorf("missing parent: %v", err)
		}
		// A file is not a directory.
		if err := create(nc, p, cred, "/a/b", ref(4), 0); !errors.Is(err, naming.ErrNotDir) {
			t.Errorf("file parent: %v", err)
		}
	})
	r.Run(t)
}

func TestListSorted(t *testing.T) {
	r := testrig.New(3)
	bootNaming(r)
	nc := naming.NewClient(r.Caller(2), r.Eps[1].Node())
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 2)
		nc.Mkdir(p, cred, "/d")
		for _, n := range []string{"zeta", "alpha", "mid"} {
			if err := create(nc, p, cred, "/d/"+n, ref(9), 0); err != nil {
				t.Fatalf("create %s: %v", n, err)
			}
		}
		names, err := nc.List(p, cred, "/d")
		if err != nil {
			t.Fatalf("list: %v", err)
		}
		if !reflect.DeepEqual(names, []string{"alpha", "mid", "zeta"}) {
			t.Fatalf("names = %v", names)
		}
	})
	r.Run(t)
}

func TestRemoveSemantics(t *testing.T) {
	r := testrig.New(3)
	bootNaming(r)
	nc := naming.NewClient(r.Caller(2), r.Eps[1].Node())
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 2)
		nc.Mkdir(p, cred, "/d")
		create(nc, p, cred, "/d/f", ref(7), 0)
		if _, err := nc.Remove(p, cred, "/d"); !errors.Is(err, naming.ErrNotEmpty) {
			t.Errorf("remove non-empty dir: %v", err)
		}
		e, err := nc.Remove(p, cred, "/d/f")
		if err != nil || !reflect.DeepEqual(e.Refs, []storage.ObjRef{ref(7)}) {
			t.Errorf("remove file: %+v %v", e, err)
		}
		if _, err := nc.Remove(p, cred, "/d"); err != nil {
			t.Errorf("remove empty dir: %v", err)
		}
		if _, err := nc.Lookup(p, cred, "/d"); !errors.Is(err, naming.ErrNotFound) {
			t.Errorf("lookup removed: %v", err)
		}
	})
	r.Run(t)
}

func TestOwnershipEnforced(t *testing.T) {
	r := testrig.New(4)
	bootNaming(r)
	nc2 := naming.NewClient(r.Caller(2), r.Eps[1].Node())
	nc3 := naming.NewClient(r.Caller(3), r.Eps[1].Node())
	done := sim.NewMailbox(r.K, "done")
	r.Go("alice", func(p *sim.Proc) {
		cred := login(t, p, r, 2)
		create(nc2, p, cred, "/mine", ref(1), 0)
		done.Send("ok")
	})
	r.Go("bob", func(p *sim.Proc) {
		done.Recv(p)
		cred, err := r.AuthnClient(3).Login(p, "bob", testrig.Secret("bob"))
		if err != nil {
			t.Fatalf("login: %v", err)
		}
		// Bob can look it up but not remove it.
		if _, err := nc3.Lookup(p, cred, "/mine"); err != nil {
			t.Errorf("lookup: %v", err)
		}
		if _, err := nc3.Remove(p, cred, "/mine"); !errors.Is(err, naming.ErrNotOwner) {
			t.Errorf("remove: %v", err)
		}
	})
	r.Run(t)
}

func TestBadCredentialRejected(t *testing.T) {
	r := testrig.New(3)
	bootNaming(r)
	nc := naming.NewClient(r.Caller(2), r.Eps[1].Node())
	r.Go("client", func(p *sim.Proc) {
		fake := authn.Credential{}
		fake.Token[5] = 9
		if err := create(nc, p, fake, "/x", ref(1), 0); !errors.Is(err, naming.ErrBadCred) {
			t.Errorf("forged cred: %v", err)
		}
	})
	r.Run(t)
}

func TestTransactionalCreateVisibility(t *testing.T) {
	r := testrig.New(3)
	bootNaming(r)
	nc := naming.NewClient(r.Caller(2), r.Eps[1].Node())
	co := txn.NewCoordinator(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 2)
		// Committed transaction: name becomes visible at commit.
		tx := co.Begin()
		tx.Enlist(nc.TxnEndpoint())
		if err := create(nc, p, cred, "/ckpt-ok", ref(10), tx.ID); err != nil {
			t.Fatalf("txn create: %v", err)
		}
		if _, err := nc.Lookup(p, cred, "/ckpt-ok"); !errors.Is(err, naming.ErrNotFound) {
			t.Errorf("pending entry visible before commit: %v", err)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}
		if _, err := nc.Lookup(p, cred, "/ckpt-ok"); err != nil {
			t.Errorf("entry missing after commit: %v", err)
		}
		// Aborted transaction: name vanishes and can be reused.
		tx2 := co.Begin()
		tx2.Enlist(nc.TxnEndpoint())
		if err := create(nc, p, cred, "/ckpt-bad", ref(11), tx2.ID); err != nil {
			t.Fatalf("txn create 2: %v", err)
		}
		if err := tx2.Abort(p); err != nil {
			t.Fatalf("abort: %v", err)
		}
		if _, err := nc.Lookup(p, cred, "/ckpt-bad"); !errors.Is(err, naming.ErrNotFound) {
			t.Errorf("aborted entry visible: %v", err)
		}
		if err := create(nc, p, cred, "/ckpt-bad", ref(12), 0); err != nil {
			t.Errorf("reuse after abort: %v", err)
		}
	})
	r.Run(t)
}

func TestPendingNameReservesSlot(t *testing.T) {
	r := testrig.New(3)
	bootNaming(r)
	nc := naming.NewClient(r.Caller(2), r.Eps[1].Node())
	co := txn.NewCoordinator(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 2)
		tx := co.Begin()
		tx.Enlist(nc.TxnEndpoint())
		create(nc, p, cred, "/slot", ref(1), tx.ID)
		// A concurrent non-transactional create of the same name collides.
		if err := create(nc, p, cred, "/slot", ref(2), 0); !errors.Is(err, naming.ErrExists) {
			t.Errorf("pending name not reserved: %v", err)
		}
		tx.Abort(p)
	})
	r.Run(t)
}

func TestBadPaths(t *testing.T) {
	r := testrig.New(3)
	bootNaming(r)
	nc := naming.NewClient(r.Caller(2), r.Eps[1].Node())
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 2)
		for _, bad := range []string{"", "relative/path", "/"} {
			if err := create(nc, p, cred, bad, ref(1), 0); !errors.Is(err, naming.ErrBadPath) {
				t.Errorf("path %q: %v", bad, err)
			}
		}
		// Messy but legal paths are cleaned.
		nc.Mkdir(p, cred, "/d")
		if err := create(nc, p, cred, "/d//x/../y", ref(1), 0); err != nil {
			t.Errorf("cleanable path: %v", err)
		}
		if _, err := nc.Lookup(p, cred, "/d/y"); err != nil {
			t.Errorf("lookup cleaned: %v", err)
		}
	})
	r.Run(t)
}

// A path is logged as a journal record's Detail, and the journal's record
// separator is a newline: a path holding one would let a client forge a
// record for another transaction ("/x\n77 commit forged" made txn 77 read as
// committed). It is refused before anything is inserted or logged.
func TestNewlineInPathCannotForgeJournalRecords(t *testing.T) {
	r := testrig.New(3)
	_, part := bootNaming(r)
	nc := naming.NewClient(r.Caller(2), r.Eps[1].Node())
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 2)
		for _, bad := range []string{"/x\n77 commit forged", "/d\n"} {
			if err := create(nc, p, cred, bad, ref(1), 5); !errors.Is(err, naming.ErrBadPath) {
				t.Errorf("create %q: %v, want ErrBadPath", bad, err)
			}
			if err := nc.Mkdir(p, cred, bad); !errors.Is(err, naming.ErrBadPath) {
				t.Errorf("mkdir %q: %v, want ErrBadPath", bad, err)
			}
		}
		if _, err := nc.Lookup(p, cred, "/x"); !errors.Is(err, naming.ErrNotFound) {
			t.Errorf("lookup /x: %v, want ErrNotFound", err)
		}
		recs, err := part.ReadJournal(p)
		if err != nil || len(recs) != 0 {
			t.Errorf("journal holds %+v (err %v), want nothing", recs, err)
		}
		// The same name without the newline is fine.
		if err := create(nc, p, cred, "/x", ref(1), 0); err != nil {
			t.Errorf("create /x: %v", err)
		}
	})
	r.Run(t)
}

// Property: a random sequence of creates under distinct clean paths is
// fully retrievable, and list of each directory matches exactly the created
// children.
func TestNamespaceConsistencyProperty(t *testing.T) {
	prop := func(seeds []uint16) bool {
		r := testrig.New(3)
		bootNaming(r)
		nc := naming.NewClient(r.Caller(2), r.Eps[1].Node())
		ok := true
		r.Go("client", func(p *sim.Proc) {
			cred := login(nil, p, r, 2)
			dirs := []string{"/"}
			created := map[string]uint64{}
			for i, s := range seeds {
				if i >= 12 {
					break
				}
				parent := dirs[int(s)%len(dirs)]
				if s%3 == 0 {
					path := fmt.Sprintf("%s/dir%d", parent, i)
					if parent == "/" {
						path = fmt.Sprintf("/dir%d", i)
					}
					if err := nc.Mkdir(p, cred, path); err == nil {
						dirs = append(dirs, path)
					}
				} else {
					path := fmt.Sprintf("%s/f%d", parent, i)
					if parent == "/" {
						path = fmt.Sprintf("/f%d", i)
					}
					if err := create(nc, p, cred, path, ref(uint64(i)), 0); err == nil {
						created[path] = uint64(i)
					}
				}
			}
			for path, id := range created {
				e, err := nc.Lookup(p, cred, path)
				if err != nil || len(e.Refs) != 1 || e.Refs[0].ID != osd.ObjectID(id) {
					ok = false
					return
				}
			}
		})
		if err := r.K.Run(sim.MaxTime); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiRefCreateLookupRoundTrip(t *testing.T) {
	r := testrig.New(3)
	bootNaming(r)
	nc := naming.NewClient(r.Caller(2), r.Eps[1].Node())
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 2)
		refs := []storage.ObjRef{ref(1), ref(2), ref(3)}
		if err := nc.CreateRefs(p, cred, "/mirrored", refs, 0); err != nil {
			t.Fatalf("createrefs: %v", err)
		}
		e, err := nc.Lookup(p, cred, "/mirrored")
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		// The mirrors come back in order, the primary first.
		if !reflect.DeepEqual(e.Refs, refs) {
			t.Errorf("Refs = %v, want %v", e.Refs, refs)
		}
		// A single-ref entry lists exactly its one ref.
		if err := create(nc, p, cred, "/single", ref(9), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		se, err := nc.Lookup(p, cred, "/single")
		if err != nil {
			t.Fatalf("lookup single: %v", err)
		}
		if !reflect.DeepEqual(se.Refs, []storage.ObjRef{ref(9)}) {
			t.Errorf("single Refs = %v", se.Refs)
		}
		// Empty mirror sets are rejected client-side.
		if err := nc.CreateRefs(p, cred, "/empty", nil, 0); !errors.Is(err, naming.ErrBadPath) {
			t.Errorf("empty refs: %v", err)
		}
	})
	r.Run(t)
}

func TestSetRefsImmediateAndOwnership(t *testing.T) {
	r := testrig.New(4)
	bootNaming(r)
	nc2 := naming.NewClient(r.Caller(2), r.Eps[1].Node())
	nc3 := naming.NewClient(r.Caller(3), r.Eps[1].Node())
	done := sim.NewMailbox(r.K, "done")
	r.Go("alice", func(p *sim.Proc) {
		cred := login(t, p, r, 2)
		if err := create(nc2, p, cred, "/f", ref(1), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		next := []storage.ObjRef{ref(4), ref(5)}
		if err := nc2.SetRefs(p, cred, "/f", next, 0); err != nil {
			t.Fatalf("setrefs: %v", err)
		}
		e, err := nc2.Lookup(p, cred, "/f")
		if err != nil || !reflect.DeepEqual(e.Refs, next) {
			t.Fatalf("after setrefs: %+v %v", e, err)
		}
		// Directories and missing entries are rejected.
		nc2.Mkdir(p, cred, "/d")
		if err := nc2.SetRefs(p, cred, "/d", next, 0); !errors.Is(err, naming.ErrIsDir) {
			t.Errorf("setrefs on dir: %v", err)
		}
		if err := nc2.SetRefs(p, cred, "/missing", next, 0); !errors.Is(err, naming.ErrNotFound) {
			t.Errorf("setrefs missing: %v", err)
		}
		done.Send("ok")
	})
	r.Go("bob", func(p *sim.Proc) {
		done.Recv(p)
		cred, err := r.AuthnClient(3).Login(p, "bob", testrig.Secret("bob"))
		if err != nil {
			t.Fatalf("login: %v", err)
		}
		if err := nc3.SetRefs(p, cred, "/f", []storage.ObjRef{ref(8)}, 0); !errors.Is(err, naming.ErrNotOwner) {
			t.Errorf("setrefs by non-owner: %v", err)
		}
	})
	r.Run(t)
}

func TestTransactionalSetRefsVisibility(t *testing.T) {
	r := testrig.New(3)
	bootNaming(r)
	nc := naming.NewClient(r.Caller(2), r.Eps[1].Node())
	co := txn.NewCoordinator(r.Caller(2))
	r.Go("client", func(p *sim.Proc) {
		cred := login(t, p, r, 2)
		old := []storage.ObjRef{ref(1), ref(2)}
		if err := nc.CreateRefs(p, cred, "/f", old, 0); err != nil {
			t.Fatalf("createrefs: %v", err)
		}
		// Aborted transaction: the old mirror set survives untouched.
		tx := co.Begin()
		tx.Enlist(nc.TxnEndpoint())
		if err := nc.SetRefs(p, cred, "/f", []storage.ObjRef{ref(7)}, tx.ID); err != nil {
			t.Fatalf("txn setrefs: %v", err)
		}
		e, _ := nc.Lookup(p, cred, "/f")
		if !reflect.DeepEqual(e.Refs, old) {
			t.Errorf("refs changed before commit: %v", e.Refs)
		}
		if err := tx.Abort(p); err != nil {
			t.Fatalf("abort: %v", err)
		}
		e, _ = nc.Lookup(p, cred, "/f")
		if !reflect.DeepEqual(e.Refs, old) {
			t.Errorf("refs changed by aborted txn: %v", e.Refs)
		}
		// Committed transaction: the swap lands atomically at commit.
		next := []storage.ObjRef{ref(3), ref(4)}
		tx2 := co.Begin()
		tx2.Enlist(nc.TxnEndpoint())
		if err := nc.SetRefs(p, cred, "/f", next, tx2.ID); err != nil {
			t.Fatalf("txn setrefs 2: %v", err)
		}
		if err := tx2.Commit(p); err != nil {
			t.Fatalf("commit: %v", err)
		}
		e, _ = nc.Lookup(p, cred, "/f")
		if !reflect.DeepEqual(e.Refs, next) {
			t.Errorf("refs after commit: %+v", e)
		}
	})
	r.Run(t)
}
