// Command lwfstrace prints the wire-level protocol trace of one LWFS
// operation — every message's send and delivery instant, endpoints, size
// and body type — as a teaching companion to the paper's Figure 4 (the
// getcaps/verify protocols) and Figure 6 (server-directed I/O).
//
//	lwfstrace -op write     # Figure 6: request, server-directed pulls, ack
//	lwfstrace -op getcaps   # Figure 4a: getcaps + authn verify
//	lwfstrace -op read      # server-directed pushes
//	lwfstrace -op revoke    # §3.1.4: back-pointer invalidation callbacks
//
// An unknown -op, a -kb below 1 or past an int64's bytes, and positional
// arguments are a bad command line (exit 2), refused before anything runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"

	"lwfs"
	"lwfs/internal/netsim"
	"lwfs/internal/portals"
	"lwfs/internal/sim"
)

// traceEvent is one captured wire event: a message leaving a NIC ("tx") or
// being delivered ("rx"). Body is the message body described at capture time:
// the record behind netsim.Message.Body is recycled once its receiver has
// read it, so the hook may not keep it.
type traceEvent struct {
	At       sim.Time
	Kind     string
	From, To netsim.NodeID
	Size     int64
	Body     string
}

// runTrace boots a small cluster, performs untraced setup (login, caps, an
// object holding kb KiB), then runs the requested operation with the wire
// trace armed. It returns the captured events and a node-name resolver.
func runTrace(op string, kb int64) ([]traceEvent, func(netsim.NodeID) string, error) {
	spec := lwfs.DevCluster()
	spec.ComputeNodes = 1
	spec = spec.WithServers(2)
	cl := lwfs.NewCluster(spec)
	cl.RegisterUser("u", "pw")
	sys := cl.DeployLWFS()
	c := cl.NewClient(sys, 0)

	var events []traceEvent
	tracing := false
	cl.Net.SetTrace(func(at sim.Time, m netsim.Message, kind string) {
		if tracing {
			events = append(events, traceEvent{At: at, Kind: kind, From: m.From, To: m.To, Size: m.Size, Body: portals.DescribeBody(m.Body)})
		}
	})
	name := func(id netsim.NodeID) string { return cl.Net.Node(id).Name }

	var fail error
	cl.Spawn("trace", func(p *lwfs.Proc) {
		abort := func(err error) bool {
			if err != nil && fail == nil {
				fail = err
			}
			return err != nil
		}
		// Untraced setup.
		if abort(c.Login(p, "u", "pw")) {
			return
		}
		cid, err := c.CreateContainer(p)
		if abort(err) {
			return
		}
		caps, err := c.GetCaps(p, cid, lwfs.AllOps...)
		if abort(err) {
			return
		}
		ref, err := c.CreateObject(p, c.Server(0), caps)
		if abort(err) {
			return
		}
		if _, err := c.Write(p, ref, caps, 0, lwfs.Synthetic(kb<<10)); abort(err) {
			return
		}

		tracing = true
		switch op {
		case "getcaps":
			// Fresh principal state so the authn consult shows up: expire
			// the credential cache by using a brand-new container.
			cid2, err := c.CreateContainer(p)
			if abort(err) {
				return
			}
			_, err = c.GetCaps(p, cid2, lwfs.OpWrite, lwfs.OpRead)
			abort(err)
		case "write":
			_, err := c.Write(p, ref, caps, 0, lwfs.Synthetic(kb<<10))
			abort(err)
		case "read":
			_, err := c.Read(p, ref, caps, 0, kb<<10)
			abort(err)
		case "revoke":
			abort(c.Revoke(p, cid, lwfs.OpWrite))
		default:
			abort(fmt.Errorf("unknown -op %q", op))
		}
		tracing = false
	})
	if err := cl.Run(); err != nil {
		return nil, nil, err
	}
	if fail != nil {
		return nil, nil, fail
	}
	return events, name, nil
}

// render prints the captured trace as the command's tab-aligned table.
func render(w io.Writer, op string, kb int64, events []traceEvent, name func(netsim.NodeID) string) {
	fmt.Fprintf(w, "# protocol trace: %s (%d KiB)\n", op, kb)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "virtual time\tevent\tfrom\tto\tbytes\tbody")
	var t0 sim.Time
	for i, e := range events {
		if i == 0 {
			t0 = e.At
		}
		fmt.Fprintf(tw, "+%v\t%s\t%s\t%s\t%d\t%s\n",
			e.At.Sub(t0), e.Kind, name(e.From), name(e.To), e.Size, e.Body)
	}
	tw.Flush()
	fmt.Fprintf(w, "# %d messages\n", len(events)/2)
}

// ops are the operations lwfstrace can trace.
var ops = []string{"getcaps", "write", "read", "revoke"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: 0 on success, 1 when the traced run fails, 2 on
// a bad command line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lwfstrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	op := fs.String("op", "write", "getcaps|write|read|revoke")
	kb := fs.Int64("kb", 256, "transfer size in KiB (write/read)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	var err error
	switch {
	case !slices.Contains(ops, *op):
		err = fmt.Errorf("unknown -op %q, want getcaps, write, read or revoke", *op)
	case *kb < 1 || *kb > math.MaxInt64>>10:
		err = fmt.Errorf("-kb %d: want 1 to %d", *kb, int64(math.MaxInt64>>10))
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintf(stderr, "lwfstrace: %v\n", err)
		return 2
	}

	events, name, err := runTrace(*op, *kb)
	if err != nil {
		fmt.Fprintf(stderr, "lwfstrace: %v\n", err)
		return 1
	}
	render(stdout, *op, *kb, events, name)
	return 0
}
