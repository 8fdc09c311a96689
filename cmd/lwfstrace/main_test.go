package main

import (
	"bytes"
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

// TestBadCommandLines: an unknown -op, an out-of-range -kb and positional
// arguments are refused before anything runs, with one error line, exit 2
// and nothing on stdout.
func TestBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-op", "nosuch"},
		{"-kb", "0"},
		{"-kb", "-1"},
		{"-kb", "9007199254740992"},
		{"write"},
		{"-op", "read", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", strings.Join(args, " "), code)
		}
		if stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%s: stdout %q, stderr %q; want one error line and no trace",
				strings.Join(args, " "), stdout.String(), stderr.String())
		}
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
