package trace

import (
	"bytes"
	"embed"
	"fmt"
	"sort"
	"strings"
)

// The example workload traces, captured by running the instrumented
// scientific examples with their -trace flag:
//
//	go run ./examples/jacobi  -trace internal/trace/testdata/jacobi.trace
//	go run ./examples/seismic -trace internal/trace/testdata/seismic.trace
//	go run ./examples/climate -trace internal/trace/testdata/climate.trace
//
// The simulation is deterministic, so regenerating seismic's and climate's
// is byte-stable (each example's test checks it). Jacobi's is frozen: it was
// captured under an earlier timing model, and a rerun records every rank's
// stream unchanged but at other timestamps, interleaving the ranks
// differently. A clone replays events in file order, so that interleaving is
// the replay_jacobi workload's op order; regenerating the file would change
// it.
//
//go:embed testdata/jacobi.trace testdata/seismic.trace testdata/climate.trace
var exampleFS embed.FS

// ExampleNames lists the embedded example traces ("jacobi", "seismic",
// "climate"), sorted.
func ExampleNames() []string {
	ents, err := exampleFS.ReadDir("testdata")
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		names = append(names, strings.TrimSuffix(e.Name(), ".trace"))
	}
	sort.Strings(names)
	return names
}

// Example decodes an embedded example trace by name.
func Example(name string) (*Trace, error) {
	data, err := exampleFS.ReadFile("testdata/" + name + ".trace")
	if err != nil {
		return nil, fmt.Errorf("trace: no example %q (have %v)", name, ExampleNames())
	}
	return Decode(bytes.NewReader(data))
}
