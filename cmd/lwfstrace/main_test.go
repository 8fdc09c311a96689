package main

import (
	"strings"
	"testing"
)

// opMarkers: for each -op, protocol messages that must appear in its trace —
// what the figure the op illustrates is about. "get" is the server-directed
// pull of Figure 6.
var opMarkers = map[string][]string{
	"write":   {"put[storage.writeReq]", "get"},
	"read":    {"put[storage.readReq]"},
	"getcaps": {"put[authz.getCapsReq]"},
	"revoke":  {"put[authz.revokeReq]", "put[authz.InvalidateCaps]"},
}

// TestTraceEveryOp smoke-tests each supported -op: the trace is non-empty,
// time-ordered, carries both sends and deliveries, and contains the
// protocol messages the op exists to show.
func TestTraceEveryOp(t *testing.T) {
	for _, op := range []string{"write", "read", "getcaps", "revoke"} {
		op := op
		t.Run(op, func(t *testing.T) {
			events, name, err := runTrace(op, 64)
			if err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatal("empty trace")
			}
			kinds := map[string]int{}
			bodies := map[string]bool{}
			for i, e := range events {
				if i > 0 && e.At < events[i-1].At {
					t.Fatalf("event %d at %v precedes event %d at %v", i, e.At, i-1, events[i-1].At)
				}
				kinds[e.Kind]++
				bodies[e.Body] = true
				if name(e.From) == "" || name(e.To) == "" {
					t.Fatalf("event %d has unnamed endpoints: %+v", i, e)
				}
			}
			if kinds["tx"] == 0 || kinds["rx"] == 0 {
				t.Fatalf("trace kinds %v, want both tx and rx", kinds)
			}
			for _, want := range opMarkers[op] {
				if !bodies[want] {
					t.Fatalf("trace lacks %s; saw %v", want, keys(bodies))
				}
			}
			var b strings.Builder
			render(&b, op, 64, events, name)
			out := b.String()
			if !strings.Contains(out, "# protocol trace: "+op) || !strings.Contains(out, "virtual time") {
				t.Fatalf("render output:\n%s", out)
			}
		})
	}
}

// TestTraceUnknownOp: a bad -op surfaces as an error, not a panic or an
// empty success.
func TestTraceUnknownOp(t *testing.T) {
	if _, _, err := runTrace("bogus", 1); err == nil {
		t.Fatal("unknown op did not error")
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
