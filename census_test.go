package lwfs_test

// The options census. Every field of an option struct is a configuration
// axis that tests and benchmarks would have to cover; a field that no
// product code ever sets, or that every set in the module gives the same
// constant, is an axis with one value in use, which should be a constant.
// TestOptionsCensus type-checks the whole module (standard library only),
// finds every place an option field is set and the constant it assigns, and
// fails when a field is set by no product code, or is a number or string
// every set gives one value, and is not on censusKept with a reason. It
// prints the totals so CHANGES.md can quote them.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// optionStruct matches the names of the structs the census counts.
var optionStruct = regexp.MustCompile(`(Config|Options|Opts|Spec|Policy|Params)$|^Env$`)

// defaultsFunc matches the functions whose sets do not count: a struct
// filling in its own defaults says nothing about whether anyone chooses.
var defaultsFunc = regexp.MustCompile(`^(defaults|withDefaults|Default.*)$`)

// censusKept lists, by name, the fields the census flags that stay anyway,
// each with the reason a test or benchmark needs it: a reference arm, a
// size a test shrinks, or a surface the frozen bench/ harness sets. A
// calibration value no caller varies is a package constant, not a field.
var censusKept = map[string]string{
	"checkpoint.Config.JitterMax":    "chaos tests widen start jitter to move crash windows",
	"storage.Config.ChunkSize":       "tests and the root ablation benchmark vary them",
	"storage.Config.PinnedBuffer":    "tests and the root ablation benchmark vary them",
	"storage.Config.DisableCapCache": "ablation arm of the root BenchmarkAblationCapCache",
	"lwfspfs.Options.Stripes":        "tests pin a narrow stripe on a wide cluster; Mount reads it from the superblock",
	"figures.RedStormOpts.Seed":      "frozen bench/ surface: only bench/ sets it, to its default (ROADMAP item 11)",
}

// setters is who sets one option field, and with what: value is the
// constant every set so far assigned, and varies is set once two sets
// differ or one assigns a value that is not a constant.
type setters struct {
	product, test bool
	value         constant.Value
	varies        bool
}

// note records one set of the field to v (nil: not a constant).
func (s *setters) note(v constant.Value) {
	switch {
	case v == nil:
		s.varies = true
	case s.value == nil:
		s.value = v
	case !constant.Compare(s.value, token.EQL, v):
		s.varies = true
	}
}

// singleValued is the constant every set of a numeric or string field
// assigns, or "" when the sets differ, one is not a constant, or the field
// is a bool (whose zero value is the other setting in use).
func (s *setters) singleValued(t types.Type) string {
	b, ok := t.Underlying().(*types.Basic)
	if s == nil || s.varies || s.value == nil || !ok || b.Info()&(types.IsNumeric|types.IsString) == 0 {
		return ""
	}
	return s.value.ExactString()
}

// census is the loaded module: every option field by declaration
// position, and who sets it.
type census struct {
	fset   *token.FileSet
	std    types.Importer
	dirs   map[string]*censusDir     // import path -> parsed directory
	fields map[token.Pos]optionField // by declaration position
	sets   map[token.Pos]*setters    // who sets each option field
	errs   []error
	// checked is every type-check made, scanned for sets once all the
	// option fields are known.
	checked []checkedFiles
}

// theCensus loads the module once for every census test.
var theCensus = sync.OnceValues(func() (*census, error) { return loadCensus(".") })

// optionField names a field of an option struct: "pkg.Struct" and "Field",
// and its type.
type optionField struct {
	owner, name string
	typ         types.Type
}

func (f optionField) String() string { return f.owner + "." + f.name }

type checkedFiles struct {
	files []*ast.File
	info  *types.Info
}

type censusDir struct {
	path               string
	files, test, xtest []*ast.File
	pkg                *types.Package
}

func loadCensus(root string) (*census, error) {
	c := &census{
		fset:   token.NewFileSet(),
		dirs:   map[string]*censusDir{},
		fields: map[token.Pos]optionField{},
		sets:   map[token.Pos]*setters{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		dir := filepath.Dir(p)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(c.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		path := "lwfs"
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		cd := c.dirs[path]
		if cd == nil {
			cd = &censusDir{path: path}
			c.dirs[path] = cd
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			cd.files = append(cd.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			cd.xtest = append(cd.xtest, f)
		default:
			cd.test = append(cd.test, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(c.dirs))
	for p := range c.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	// Pass 1: product packages (this also collects the option fields, which
	// the later passes need to recognise sets from test files).
	for _, p := range paths {
		if _, err := c.Import(p); err != nil {
			return nil, err
		}
	}
	// Pass 2: each package again with its in-package tests, and its
	// external test package. Fields are identified by declaration position,
	// which the re-check shares with pass 1.
	for _, p := range paths {
		cd := c.dirs[p]
		var imp types.Importer = c
		if len(cd.test) > 0 {
			withTests := c.check(cd.path, append(append([]*ast.File{}, cd.files...), cd.test...), c)
			imp = &testVariant{c: c, of: cd.path, pkgs: map[string]*types.Package{cd.path: withTests}}
		}
		if len(cd.xtest) > 0 {
			c.check(cd.path+"_test", cd.xtest, imp)
		}
	}
	if len(c.errs) > 0 {
		return nil, fmt.Errorf("type-checking the module: %d errors, first: %v", len(c.errs), c.errs[0])
	}
	for _, ch := range c.checked {
		for _, f := range ch.files {
			c.scan(f, ch.info)
		}
	}
	return c, nil
}

// Import resolves module packages from the parsed tree and everything
// else through the standard library's source importer.
func (c *census) Import(path string) (*types.Package, error) {
	cd := c.dirs[path]
	if cd == nil {
		return c.std.Import(path)
	}
	if cd.pkg == nil {
		cd.pkg = c.check(path, cd.files, c)
		c.collectFields(cd.pkg)
	}
	return cd.pkg, nil
}

// testVariant is what an external test package imports, as the go tool
// builds it: the package under test is the one re-checked with its
// in-package tests (so export_test.go names resolve), and so that its
// types stay one identity, every module package that imports it is
// re-checked against that variant too.
type testVariant struct {
	c    *census
	of   string
	pkgs map[string]*types.Package
}

func (v *testVariant) Import(path string) (*types.Package, error) {
	if pkg := v.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	cd := v.c.dirs[path]
	if cd == nil || !v.c.imports(cd, v.of, map[string]bool{}) {
		return v.c.Import(path)
	}
	pkg := v.c.check(path, cd.files, v)
	v.pkgs[path] = pkg
	return pkg, nil
}

// imports reports whether cd's product files reach target through module
// imports.
func (c *census) imports(cd *censusDir, target string, seen map[string]bool) bool {
	if seen[cd.path] {
		return false
	}
	seen[cd.path] = true
	for _, f := range cd.files {
		for _, spec := range f.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			if p == target {
				return true
			}
			if dep := c.dirs[p]; dep != nil && c.imports(dep, target, seen) {
				return true
			}
		}
	}
	return false
}

func (c *census) check(path string, files []*ast.File, imp types.Importer) *types.Package {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp, Error: func(err error) { c.errs = append(c.errs, err) }}
	pkg, _ := conf.Check(path, c.fset, files, info)
	c.checked = append(c.checked, checkedFiles{files, info})
	return pkg
}

// inTestFile reports whether pos lies in a _test.go file.
func (c *census) inTestFile(pos token.Pos) bool {
	return strings.HasSuffix(c.fset.Position(pos).Filename, "_test.go")
}

// collectFields records the fields of pkg's option structs; bench/ is the
// frozen benchmark and has none of its own to count.
func (c *census) collectFields(pkg *types.Package) {
	if pkg.Path() == "lwfs/bench" {
		return
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || !optionStruct.MatchString(name) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		owner := pkg.Name() + "." + name
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			c.fields[f.Pos()] = optionField{owner, f.Name(), f.Type()}
		}
	}
}

// scan records every set of an option field in f, with the constant it
// assigns: a composite-literal element, or an assignment or ++/-- target.
// Sets a struct makes to itself inside its own defaults function do not
// count.
func (c *census) scan(f *ast.File, info *types.Info) {
	isTest := c.inTestFile(f.Pos())
	for _, decl := range f.Decls {
		own := ""
		if fd, ok := decl.(*ast.FuncDecl); ok && defaultsFunc.MatchString(fd.Name.Name) {
			own = defaultsOwner(fd, info)
		}
		// record notes a set of v to the value of expr (nil: not known to
		// be a constant).
		record := func(v *types.Var, expr ast.Expr) {
			if v == nil {
				return
			}
			field, ok := c.fields[v.Pos()]
			if !ok || field.owner == own {
				return
			}
			s := c.sets[v.Pos()]
			if s == nil {
				s = &setters{}
				c.sets[v.Pos()] = s
			}
			if isTest {
				s.test = true
			} else {
				s.product = true
			}
			var val constant.Value
			if expr != nil {
				val = info.Types[expr].Value
			}
			s.note(val)
		}
		target := func(e, value ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil {
					v, _ := s.Obj().(*types.Var)
					record(v, value)
				}
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st, ok := derefStruct(info.Types[n].Type)
				if !ok {
					break
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							v, _ := info.Uses[id].(*types.Var)
							record(v, kv.Value)
						}
					} else if i < st.NumFields() {
						record(st.Field(i), el)
					}
				}
			case *ast.AssignStmt:
				for i, l := range n.Lhs {
					var value ast.Expr // a compound or tuple assignment varies
					if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
						value = n.Rhs[i]
					}
					target(l, value)
				}
			case *ast.IncDecStmt:
				target(n.X, nil)
			}
			return true
		})
	}
}

// defaultsOwner names the struct a defaults function belongs to: its
// receiver, or for a Default*() constructor its result.
func defaultsOwner(fd *ast.FuncDecl, info *types.Info) string {
	var e ast.Expr
	switch {
	case fd.Recv != nil && len(fd.Recv.List) == 1:
		e = fd.Recv.List[0].Type
	case fd.Type.Results != nil && len(fd.Type.Results.List) == 1:
		e = fd.Type.Results.List[0].Type
	default:
		return ""
	}
	t := info.Types[e].Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Name() + "." + n.Obj().Name()
	}
	return ""
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

func TestOptionsCensus(t *testing.T) {
	c, err := theCensus()
	if err != nil {
		t.Fatal(err)
	}
	var noProduct, noSetter int
	var rows []string // every field the census flags, with its verdict
	var unexplained []string
	seen := map[string]bool{} // allowlist entries that excused a field
	for pos, field := range c.fields {
		name := field.String()
		s := c.sets[pos]
		var who string
		switch one := s.singleValued(field.typ); {
		case s == nil:
			who = "set by nobody"
			noProduct++
			noSetter++
		case !s.product:
			who = "set by tests only"
			noProduct++
		case one != "":
			who = "always set to " + one
		default:
			continue
		}
		reason, kept := censusKept[name]
		if kept {
			seen[name] = true
		} else {
			reason = "UNEXPLAINED"
			unexplained = append(unexplained, fmt.Sprintf("%s (%s)", name, who))
		}
		rows = append(rows, fmt.Sprintf("%-40s %-20s  %s", name, who, reason))
	}
	sort.Strings(rows)
	t.Logf("options census: %d option fields outside bench/; %d set by no product code; %d set by nobody at all; %d kept\n%s",
		len(c.fields), noProduct, noSetter, len(seen), strings.Join(rows, "\n"))
	sort.Strings(unexplained)
	for _, u := range unexplained {
		t.Errorf("option field %s: make it a constant, or list it in censusKept with the reason it stays", u)
	}
	for name := range censusKept {
		if !seen[name] {
			t.Errorf("censusKept lists %s, which is gone or is now set by product code to more than one value: drop the entry", name)
		}
	}
}

// The exports census. An exported function or method under internal/ is a
// promise that some caller needs it; one that only _test.go files reference
// is behaviour the product does not have, kept alive by its own unit tests.
// TestExportsCensus fails when an export declared in a non-test file under
// internal/ is referenced by no non-test file in the module (internal/,
// cmd/, bench/, examples/, lwfs.go), satisfies no interface, and is not on
// exportsKept with a reason.

// exportsKept lists the exports no product code references that stay, as
// "reason: detail". The reasons: test rig; fault injection (netsim controls
// the chaos suites script); paper API (client calls PAPER.md §3.1–3.3
// names though no experiment makes them); accessor (a one-line view of state
// that tests in another package observe or steer through, named here; one
// that only its own package's tests need is unexported instead).
var exportsKept = map[string]string{
	"testrig.New":               "test rig",
	"testrig.Rig.AuthnClient":   "test rig",
	"testrig.Rig.Go":            "test rig",
	"testrig.Rig.Metric":        "test rig",
	"testrig.Rig.Run":           "test rig",
	"testrig.Rig.StorageServer": "test rig",
	"testrig.RunChaos":          "test rig",
	"testrig.SeedFromEnv":       "test rig",

	"netsim.Network.Partition": "fault injection",
	"netsim.Network.Degrade":   "fault injection",
	"netsim.Network.Heal":      "fault injection",
	"netsim.Network.SetFault":  "fault injection",
	"netsim.Fault.Heal":        "fault injection",
	"netsim.Fault.Healed":      "fault injection",

	"core.Client.Logout":  "paper API: §3.1 a user revokes the credential it logged in with",
	"core.Client.List":    "paper API: §3.3 the object service lists a container's objects",
	"authn.Client.Verify": "paper API: §3.1 a service verifies a credential with its issuer",

	"stdfs.File.Handle":          "accessor: stdfs.TestReadFileDegraded reaches the layout through it",
	"mpi.Rank.ID":                "accessor: every mpi test body asks which rank it runs as",
	"mpi.Rank.MessagesSent":      "accessor: mpi.TestBcastIsLogarithmic",
	"osd.Device.NumObjects":      "accessor: stripe.TestRebuildFailureRemovesOrphans, storage.TestRecoveryWithCleanJournal",
	"osd.Device.Syncs":           "accessor: lwfspfs.TestCreateDecidesAtTheNamingSiteInOneAppend counts naming's flush barriers",
	"sim.Resource.Available":     "accessor: portals.TestPullFailureLeavesThePoolWholeAndTheRecordReusable",
	"storage.Server.Admission":   "accessor: qos.TestQoSOverloadShedRPC checks the queue drained",
	"storage.Server.Down":        "accessor: storage.TestCrashRestartReplaysJournal",
	"storage.Server.Participant": "accessor: core.TestFailedPrepareRollsBackWholeCheckpoint injects a failing prepare through it",
	"storage.Server.TxnEndpoint": "accessor: storage.TestCrashRecoveryCleansOrphans enlists the server by hand",
}

// export is one exported function or method declared under internal/.
type export struct {
	name          string       // "pkg.Func" or "pkg.Type.Method"
	fn            *types.Func  // its declaration
	recv          *types.Named // nil for a function
	product, test bool         // who references it
}

// exports finds every exported function and method the product packages
// under internal/ declare and records who references each. Declarations are
// matched by position, which every re-check of a package shares.
func (c *census) exports() []*export {
	byPos := map[token.Pos]*export{}
	var all []*export
	add := func(fn *types.Func, recv *types.Named) {
		if !fn.Exported() {
			return
		}
		e := &export{name: fn.Pkg().Name() + "." + fn.Name(), fn: fn, recv: recv}
		if recv != nil {
			e.name = fn.Pkg().Name() + "." + recv.Obj().Name() + "." + fn.Name()
		}
		byPos[fn.Pos()] = e
		all = append(all, e)
	}
	for path, cd := range c.dirs {
		if !strings.HasPrefix(path, "lwfs/internal/") {
			continue
		}
		scope := cd.pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				add(obj, nil)
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
					for i := 0; i < named.NumMethods(); i++ {
						add(named.Method(i), named)
					}
				}
			}
		}
	}
	for _, ch := range c.checked {
		for id, obj := range ch.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			e := byPos[fn.Origin().Pos()]
			if e == nil {
				continue
			}
			if c.inTestFile(id.Pos()) {
				e.test = true
			} else {
				e.product = true
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	return all
}

// interfaces collects every interface a product file names (declared,
// anonymous, or from the standard library) plus the exported interfaces of
// the standard packages product code imports — fmt.Stringer is satisfied
// without ever being written down.
func (c *census) interfaces() []*types.Interface {
	seen := map[*types.Interface]bool{}
	var all []*types.Interface
	add := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && !seen[iface] {
			seen[iface] = true
			all = append(all, iface)
		}
	}
	for _, ch := range c.checked {
		for e, tv := range ch.info.Types {
			if tv.IsType() && !c.inTestFile(e.Pos()) {
				add(tv.Type)
			}
		}
	}
	for _, cd := range c.dirs {
		for _, imp := range cd.pkg.Imports() {
			if c.dirs[imp.Path()] != nil {
				continue
			}
			scope := imp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					add(tn.Type())
				}
			}
		}
	}
	return all
}

// viaInterface reports whether method e is part of an interface its
// receiver (or a pointer to it) implements.
func viaInterface(e *export, ifaces []*types.Interface) bool {
	if e.recv == nil || e.recv.TypeParams().Len() > 0 {
		return false
	}
	method := e.name[strings.LastIndex(e.name, ".")+1:]
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == method &&
				(types.Implements(e.recv, iface) || types.Implements(types.NewPointer(e.recv), iface)) {
				return true
			}
		}
	}
	return false
}

func TestExportsCensus(t *testing.T) {
	c, err := theCensus()
	if err != nil {
		t.Fatal(err)
	}
	all := c.exports()
	ifaces := c.interfaces()
	var unreferenced, through int
	var rows, unexplained []string
	byReason := map[string]int{}
	seen := map[string]bool{}
	for _, e := range all {
		if e.product {
			continue
		}
		unreferenced++
		who := "tests only"
		if !e.test {
			who = "nobody"
		}
		reason, kept := exportsKept[e.name]
		switch {
		case kept:
			seen[e.name] = true
			kind, _, _ := strings.Cut(reason, ":")
			byReason[kind]++
		case viaInterface(e, ifaces):
			through++
			reason = "via an interface"
		default:
			reason = "UNEXPLAINED"
			unexplained = append(unexplained, fmt.Sprintf("%s (referenced by %s)", e.name, who))
		}
		rows = append(rows, fmt.Sprintf("%-40s referenced by %-10s  %s", e.name, who, reason))
	}
	var reasons []string
	for r, n := range byReason {
		reasons = append(reasons, fmt.Sprintf("%s %d", r, n))
	}
	sort.Strings(reasons)
	t.Logf("exports census: %d exported functions and methods in internal/; %d referenced by no product code: %d via an interface, %d kept (%s)\n%s",
		len(all), unreferenced, through, len(seen), strings.Join(reasons, ", "), strings.Join(rows, "\n"))
	for _, u := range unexplained {
		t.Errorf("export %s: delete it with what only it reached, unexport it if its own package's tests need it, or list it in exportsKept with the reason it stays", u)
	}
	for name := range exportsKept {
		if !seen[name] {
			t.Errorf("exportsKept lists %s, which is gone or is now referenced by product code: drop the entry", name)
		}
	}
}

// The parameter census. A parameter every caller passes the same constant
// is an option with one value in use, hidden in a signature instead of a
// struct. TestParamsCensus flags a parameter of an exported function or
// method declared in a non-test file under internal/ when the function has
// a product call site (a non-test file anywhere in the module) and at least
// two call sites in all, and the parameter — a number, a bool, or a pointer,
// slice, map, channel, function or interface — gets one constant (nil
// counting as one) at every one of them. A flagged parameter fails the
// census unless paramsKept lists it with the reason it stays.

// paramsKept lists the parameters the census flags that stay, by
// "pkg.Func(param)" or "pkg.Type.Method(param)", with the reason.
var paramsKept = map[string]string{
	"core.Client.Filter(off)":       "paper API: §6 a filter runs over any object range; the examples happen to scan from 0",
	"core.Client.Filter(maxResult)": "paper API: §6 the caller bounds the filter's reply; the examples happen to ask for one size",
	"core.Client.SetACL(allow)":     "paper API: §3.1 the one call both grants and removes access; only grants are exercised",
	"mpi.Rank.Allreduce(size)":      "MPI API: the wire size of the reduced value; every caller reduces one small value",
	"mpi.Rank.Gather(root)":         "MPI API: any rank can be the root; every caller gathers to rank 0",
}

// paramSite is one call site's argument for a parameter: its constant, or
// varies when it is not one.
type paramSite struct {
	value  string
	varies bool
}

func TestParamsCensus(t *testing.T) {
	c, err := theCensus()
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[token.Pos]*export{}
	for _, e := range c.exports() {
		funcs[e.fn.Pos()] = e
	}
	// Every call of one of those functions, once per call site (a file is
	// type-checked more than once), with what each parameter got there.
	type calls struct {
		product bool
		sites   map[token.Pos][]paramSite
	}
	byFunc := map[*export]*calls{}
	for _, ch := range c.checked {
		for _, f := range ch.files {
			isTest := c.inTestFile(f.Pos())
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var id *ast.Ident
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.Ident:
					id = fun
				case *ast.SelectorExpr:
					id = fun.Sel
				case *ast.IndexExpr: // an instantiated generic function
					if sel, ok := fun.X.(*ast.SelectorExpr); ok {
						id = sel.Sel
					} else {
						id, _ = fun.X.(*ast.Ident)
					}
				}
				fn, _ := ch.info.Uses[id].(*types.Func)
				if fn == nil {
					return true
				}
				e := funcs[fn.Origin().Pos()]
				if e == nil {
					return true
				}
				cs := byFunc[e]
				if cs == nil {
					cs = &calls{sites: map[token.Pos][]paramSite{}}
					byFunc[e] = cs
				}
				cs.product = cs.product || !isTest
				if _, seen := cs.sites[call.Lparen]; seen {
					return true
				}
				sig := fn.Signature()
				args := make([]paramSite, sig.Params().Len())
				for i := range args {
					if i >= len(call.Args) || sig.Variadic() && i == len(args)-1 || len(call.Args) != len(args) {
						args[i].varies = true
						continue
					}
					args[i] = constantArg(sig.Params().At(i).Type(), ch.info.Types[call.Args[i]])
				}
				cs.sites[call.Lparen] = args
				return true
			})
		}
	}
	var rows, unexplained []string
	seen := map[string]bool{}
	called := 0
	for e, cs := range byFunc {
		if !cs.product || len(cs.sites) < 2 {
			continue
		}
		called++
		sig := e.fn.Signature()
		for i := 0; i < sig.Params().Len(); i++ {
			var one string
			for _, args := range cs.sites {
				a := args[i]
				if a.varies || one != "" && a.value != one {
					one = ""
					break
				}
				one = a.value
			}
			if one == "" {
				continue
			}
			name := fmt.Sprintf("%s(%s)", e.name, sig.Params().At(i).Name())
			reason, kept := paramsKept[name]
			if kept {
				seen[name] = true
			} else {
				reason = "UNEXPLAINED"
				unexplained = append(unexplained, fmt.Sprintf("%s (always %s, %d call sites)", name, one, len(cs.sites)))
			}
			rows = append(rows, fmt.Sprintf("%-34s always %-6s %3d call sites  %s", name, one, len(cs.sites), reason))
		}
	}
	sort.Strings(rows)
	t.Logf("parameter census: %d exported functions and methods in internal/ called from product code at two or more sites; %d parameters always get one constant, %d kept\n%s",
		called, len(rows), len(seen), strings.Join(rows, "\n"))
	sort.Strings(unexplained)
	for _, u := range unexplained {
		t.Errorf("parameter %s: make it a constant inside the function, or list it in paramsKept with the reason it stays", u)
	}
	for name := range paramsKept {
		if !seen[name] {
			t.Errorf("paramsKept lists %s, which is gone or now gets more than one value: drop the entry", name)
		}
	}
}

// constantArg is what a call site passes a parameter of type t: the constant
// of a numeric or bool argument, "nil" for a nil one of a nil-able type,
// and varies for anything else — a parameter of another type always varies.
func constantArg(t types.Type, tv types.TypeAndValue) paramSite {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Info()&(types.IsNumeric|types.IsBoolean) != 0 && tv.Value != nil {
			return paramSite{value: tv.Value.ExactString()}
		}
		if u.Kind() == types.UnsafePointer && tv.IsNil() {
			return paramSite{value: "nil"}
		}
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		if tv.IsNil() {
			return paramSite{value: "nil"}
		}
	}
	return paramSite{varies: true}
}
