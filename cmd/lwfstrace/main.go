// Command lwfstrace prints the wire-level protocol trace of one LWFS
// operation — every message's send and delivery instant, endpoints, size
// and body type — as a teaching companion to the paper's Figure 4 (the
// getcaps/verify protocols) and Figure 6 (server-directed I/O).
//
//	lwfstrace -op write     # Figure 6: request, server-directed pulls, ack
//	lwfstrace -op getcaps   # Figure 4a: getcaps + authn verify
//	lwfstrace -op read      # server-directed pushes
//	lwfstrace -op revoke    # §3.1.4: back-pointer invalidation callbacks
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
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

		switch op {
		case "getcaps":
			// Fresh principal state so the authn consult shows up: expire
			// the credential cache by using a brand-new container.
			tracing = true
			cid2, err := c.CreateContainer(p)
			if abort(err) {
				return
			}
			_, err = c.GetCaps(p, cid2, lwfs.OpWrite, lwfs.OpRead)
			abort(err)
		case "write":
			tracing = true
			_, err := c.Write(p, ref, caps, 0, lwfs.Synthetic(kb<<10))
			abort(err)
		case "read":
			tracing = true
			_, err := c.Read(p, ref, caps, 0, kb<<10)
			abort(err)
		case "revoke":
			tracing = true
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

func main() {
	op := flag.String("op", "write", "getcaps|write|read|revoke")
	size := flag.Int64("kb", 256, "transfer size in KiB (write/read)")
	flag.Parse()

	events, name, err := runTrace(*op, *size)
	if err != nil {
		log.Fatal(err)
	}
	render(os.Stdout, *op, *size, events, name)
}
