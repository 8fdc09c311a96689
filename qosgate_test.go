package lwfs_test

// The QoS gate: keep the data-path servers behind admission control. Every
// portals.Serve or portals.ServeOps call site in the storage and burst tiers
// must be annotated, on its own line or the line above: `//qos:admitted` if
// the handler routes through the qos.Admission dispatcher
// (Server.SetDispatcher), `//qos:exempt` with a rationale if it deliberately
// stays FIFO (control-plane ports like drain-wait parking, which must not
// queue behind tenant data). A bare call means someone added an RPC surface
// that bypasses per-tenant fair share.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var qosMarker = regexp.MustCompile(`qos:(admitted|exempt)`)

func TestQoSGate(t *testing.T) {
	sites := 0
	for _, dir := range []string{"internal/storage", "internal/burst"} {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			marked := map[int]bool{} // lines a marker comment sits on
			for _, group := range f.Comments {
				for _, c := range group.List {
					if qosMarker.MatchString(c.Text) {
						marked[fset.Position(c.Pos()).Line] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Serve" && sel.Sel.Name != "ServeOps") {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "portals" {
					return true
				}
				sites++
				if line := fset.Position(call.Pos()).Line; !marked[line] && !marked[line-1] {
					t.Errorf("%s: portals.%s in a data tier without a qos annotation: route the handler through qos.Admission (//qos:admitted) or mark it //qos:exempt with a rationale (see internal/qos)", fset.Position(call.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
	if sites == 0 {
		t.Error("found no portals.Serve or ServeOps call in internal/storage or internal/burst: the gate is looking in the wrong place")
	}
}
