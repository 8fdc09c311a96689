package main

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"lwfs/internal/authz"
	"lwfs/internal/cluster"
	"lwfs/internal/core"
	"lwfs/internal/lwfspfs"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
	"lwfs/internal/stdfs"
	"lwfs/internal/storage"
	"lwfs/internal/stripe"
	"lwfs/internal/txn"
)

// The ladder: on a quiet 8-server dev cluster the same request — a create;
// a 4 KiB, 1 MiB and 8 MiB write and read — is issued at each successive
// public entry point, from the wire up to the standard-library facade:
//
//	portals.Caller.Call (null RPC) → core.Client → stripe.Engine → lwfspfs.File → stdfs.File
//
// Each rung records virtual µs (exact) and host ns. A layer's self time is
// its rung minus the rung below; -probes prints the table of differences.
// Beside the ladder proper, three control-plane steps the create path is
// made of are timed alone: authz GetCaps, a naming CreateName, a 2PC commit.

var ladderRungs = []string{"portals", "core", "stripe", "lwfspfs", "stdfs"}
var ladderOps = []string{"create", "write_4k", "write_1m", "write_8m", "read_4k", "read_1m", "read_8m"}

var ladderSizes = map[string]int64{"4k": 4 << 10, "1m": 1 << 20, "8m": 8 << 20}

const ladderRepeats = 5 // each cell: one warm-up call, then the median of this many

// cell is one (rung, op) measurement.
type cell struct {
	SimUs  float64
	HostNs float64
}

type ladder struct {
	Cells map[string]map[string]cell // rung → op → cell
	Extra map[string]cell            // getcaps, naming_create, txn_commit
}

// timeCall runs fn once to warm caches (capability caches, connection
// state), then ladderRepeats times, and returns the medians on both clocks.
func timeCall(p *sim.Proc, fn func() error) (cell, error) {
	return timePrepared(p, func() error { return nil }, fn)
}

// timePrepared is timeCall with a step before each call that stays outside
// the stopwatch.
func timePrepared(p *sim.Proc, prep, fn func() error) (cell, error) {
	var simUs, hostNs []float64
	for i := 0; i <= ladderRepeats; i++ {
		if err := prep(); err != nil {
			return cell{}, err
		}
		v0, h0 := p.Now(), time.Now()
		if err := fn(); err != nil {
			return cell{}, err
		}
		if i == 0 {
			continue // the warm-up
		}
		hostNs = append(hostNs, float64(time.Since(h0).Nanoseconds()))
		simUs = append(simUs, float64(p.Now().Sub(v0).Nanoseconds())/1e3)
	}
	return cell{SimUs: median(simUs), HostNs: median(hostNs)}, nil
}

func runLadder() (*ladder, error) {
	spec := cluster.DevCluster()
	spec.ComputeNodes = 1
	spec.ServersPerNode = 1
	spec = spec.WithServers(8)
	cl := cluster.New(spec)
	cl.RegisterUser("app", "s3cret")
	lw := cl.DeployLWFS()
	c := cl.NewClient(lw, 0)

	// A null service beside storage server 0: the floor every RPC pays.
	const nullPort portals.Index = 60
	portals.Serve(cl.StorageN[0], nullPort, "bench-null", 2,
		func(_ *sim.Proc, _ netsim.NodeID, req interface{}) (interface{}, error) { return req, nil })

	lad := &ladder{Cells: map[string]map[string]cell{}, Extra: map[string]cell{}}
	for _, r := range ladderRungs {
		lad.Cells[r] = map[string]cell{}
	}
	var runErr error
	cl.Spawn("bench-ladder", func(p *sim.Proc) { runErr = lad.climb(p, cl, c, nullPort) })
	if err := cl.Run(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, fmt.Errorf("ladder: %w", runErr)
	}
	return lad, nil
}

func (lad *ladder) climb(p *sim.Proc, cl *cluster.Cluster, c *core.Client, nullPort portals.Index) error {
	if err := c.Login(p, "app", "s3cret"); err != nil {
		return err
	}
	cid, err := c.CreateContainer(p)
	if err != nil {
		return err
	}
	var caps core.CapSet
	if lad.Extra["getcaps"], err = timeCall(p, func() (err error) {
		caps, err = c.GetCaps(p, cid, authz.AllOps...)
		return err
	}); err != nil {
		return err
	}
	payloads := map[string]netsim.Payload{}
	for name, size := range ladderSizes {
		payloads[name] = netsim.BytesPayload(make([]byte, size))
	}

	// Rung 0, portals: a null RPC. Only "create" has a cell: a create is
	// one small RPC at bottom; bulk transfers have no single-RPC analogue.
	if lad.Cells["portals"]["create"], err = timeCall(p, func() error {
		_, err := c.Caller().Call(p, cl.StorageN[0].Node(), nullPort, 0, 128, 128)
		return err
	}); err != nil {
		return err
	}

	// Rung 1, core.Client: one object on one server.
	target := c.Server(0)
	var ref storage.ObjRef
	if lad.Cells["core"]["create"], err = timeCall(p, func() (err error) {
		ref, err = c.CreateObject(p, target, caps)
		return err
	}); err != nil {
		return err
	}
	if err := lad.readWrite(p, "core", payloads,
		func(pl netsim.Payload) error { _, err := c.Write(p, ref, caps, 0, pl); return err },
		func(n int64) error { _, err := c.Read(p, ref, caps, 0, n); return err }); err != nil {
		return err
	}

	// Control-plane steps of a file create, alone.
	names := 0
	if err := c.Mkdir(p, "/ladder"); err != nil {
		return err
	}
	if lad.Extra["naming_create"], err = timeCall(p, func() error {
		names++
		return c.CreateName(p, fmt.Sprintf("/ladder/n%d", names), ref, nil)
	}); err != nil {
		return err
	}
	// Commit is timed alone: begin and the transactional create of one
	// object on one server happen outside the stopwatch.
	var tx *txn.Txn
	if lad.Extra["txn_commit"], err = timePrepared(p, func() error {
		tx = c.BeginTxn()
		_, err := c.CreateObjectTxn(p, target, caps, tx)
		return err
	}, func() error { return tx.Commit(p) }); err != nil {
		return err
	}

	// Rung 2, stripe.Engine: a RAID-0 layout over all 8 servers, 64 KiB unit
	// (the unit the replay workloads mount with).
	eng := stripe.NewEngine(c, caps, 0)
	var layout stripe.Layout
	if lad.Cells["stripe"]["create"], err = timeCall(p, func() error {
		layout = stripe.Layout{Unit: 64 << 10}
		for i := range c.Servers() {
			r, err := c.CreateObject(p, c.Server(i), caps)
			if err != nil {
				return err
			}
			layout.Objs = append(layout.Objs, r)
		}
		return nil
	}); err != nil {
		return err
	}
	layout.Size = ladderSizes["8m"]
	if err := lad.readWrite(p, "stripe", payloads,
		func(pl netsim.Payload) error { _, err := eng.WriteAt(p, layout, 0, pl); return err },
		func(n int64) error { _, err := eng.ReadAt(p, layout, 0, n); return err }); err != nil {
		return err
	}

	// Rung 3, lwfspfs.File: the same layout behind a file, with naming,
	// 2PC create, POSIX locking and the layout record.
	pfs, err := lwfspfs.Format(p, c, "/ladderfs", lwfspfs.Options{StripeUnit: 64 << 10})
	if err != nil {
		return err
	}
	files := 0
	var f *lwfspfs.File
	if lad.Cells["lwfspfs"]["create"], err = timeCall(p, func() (err error) {
		files++
		f, err = pfs.Create(p, fmt.Sprintf("/f%d", files))
		return err
	}); err != nil {
		return err
	}
	if err := lad.readWrite(p, "lwfspfs", payloads,
		func(pl netsim.Payload) error { _, err := f.WriteAt(p, 0, pl); return err },
		func(n int64) error { _, err := f.ReadAt(p, 0, n); return err }); err != nil {
		return err
	}
	if err := f.Close(p); err != nil {
		return err
	}
	if lad.Extra["lwfspfs_open"], err = timeCall(p, func() error {
		_, err := pfs.Open(p, fmt.Sprintf("/f%d", files))
		return err
	}); err != nil {
		return err
	}

	// Rung 4, stdfs.File: the standard-library facade over the same mount.
	x := stdfs.New(p, pfs)
	var sf *stdfs.File
	if lad.Cells["stdfs"]["create"], err = timeCall(p, func() (err error) {
		files++
		sf, err = x.Create(fmt.Sprintf("f%d", files))
		return err
	}); err != nil {
		return err
	}
	bufs := map[int64][]byte{}
	for _, size := range ladderSizes {
		bufs[size] = make([]byte, size)
	}
	return lad.readWrite(p, "stdfs", payloads,
		func(pl netsim.Payload) error { _, err := sf.WriteAt(pl.Data, 0); return err },
		func(n int64) error { _, err := sf.ReadAt(bufs[n], 0); return err })
}

// readWrite fills a rung's write and read cells. Writes go first, largest
// last, so every read finds the bytes it asks for.
func (lad *ladder) readWrite(p *sim.Proc, rung string, payloads map[string]netsim.Payload,
	write func(netsim.Payload) error, read func(int64) error) error {
	for _, size := range []string{"4k", "1m", "8m"} {
		c, err := timeCall(p, func() error { return write(payloads[size]) })
		if err != nil {
			return fmt.Errorf("%s write_%s: %w", rung, size, err)
		}
		lad.Cells[rung]["write_"+size] = c
	}
	for _, size := range []string{"4k", "1m", "8m"} {
		c, err := timeCall(p, func() error { return read(ladderSizes[size]) })
		if err != nil {
			return fmt.Errorf("%s read_%s: %w", rung, size, err)
		}
		lad.Cells[rung]["read_"+size] = c
	}
	return nil
}

// named picks the ladder cells that are per-layer metrics.
func (lad *ladder) named() map[string]float64 {
	at := func(rung, op string) cell { return lad.Cells[rung][op] }
	return map[string]float64{
		"portals.rpc_sim_us":        at("portals", "create").SimUs,
		"authz.getcaps_sim_us":      lad.Extra["getcaps"].SimUs,
		"naming.create_sim_us":      lad.Extra["naming_create"].SimUs,
		"naming.create_ns":          lad.Extra["naming_create"].HostNs,
		"txn.commit_sim_us":         lad.Extra["txn_commit"].SimUs,
		"core.write_4k_sim_us":      at("core", "write_4k").SimUs,
		"core.write_1m_sim_us":      at("core", "write_1m").SimUs,
		"core.read_1m_sim_us":       at("core", "read_1m").SimUs,
		"core.write_1m_ns":          at("core", "write_1m").HostNs,
		"stripe.writeat_8m_sim_us":  at("stripe", "write_8m").SimUs,
		"stripe.readat_8m_sim_us":   at("stripe", "read_8m").SimUs,
		"stripe.writeat_8m_ns":      at("stripe", "write_8m").HostNs,
		"lwfspfs.create_sim_us":     at("lwfspfs", "create").SimUs,
		"lwfspfs.open_sim_us":       lad.Extra["lwfspfs_open"].SimUs,
		"lwfspfs.writeat_8m_sim_us": at("lwfspfs", "write_8m").SimUs,
		"lwfspfs.create_ns":         at("lwfspfs", "create").HostNs,
		"stdfs.writeat_8m_sim_us":   at("stdfs", "write_8m").SimUs,
	}
}

// print writes the ladder: per op, each rung's virtual µs and host ns, and
// the self time (this rung minus the rung below) on both clocks.
func (lad *ladder) print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "op\trung\tsim_us\tself_sim_us\thost_ns\tself_host_ns\t")
	for _, op := range ladderOps {
		var below cell
		have := false
		for _, rung := range ladderRungs {
			c, ok := lad.Cells[rung][op]
			if !ok {
				continue
			}
			self := c
			if have {
				self.SimUs -= below.SimUs
				self.HostNs -= below.HostNs
			}
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.0f\t%.0f\t\n", op, rung, c.SimUs, self.SimUs, c.HostNs, self.HostNs)
			below, have = c, true
		}
	}
	for _, name := range []string{"getcaps", "naming_create", "txn_commit", "lwfspfs_open"} {
		c := lad.Extra[name]
		fmt.Fprintf(tw, "%s\t-\t%.3f\t-\t%.0f\t-\t\n", name, c.SimUs, c.HostNs)
	}
	tw.Flush()
}
