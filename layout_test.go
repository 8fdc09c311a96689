package lwfs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeLayout keeps README's repository layout true: the fenced block
// under "## Repository layout" names every directory under internal/ and
// cmd/, and every path it names exists. A line names its paths before the
// first run of two spaces, separated by ", ".
func TestReadmeLayout(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Repository layout\n")
	_, block, ok2 := strings.Cut(section, "```\n")
	block, _, ok3 := strings.Cut(block, "```")
	if !ok || !ok2 || !ok3 {
		t.Fatal("README.md has no fenced block under ## Repository layout")
	}
	named := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(block), "\n") {
		paths, _, _ := strings.Cut(line, "  ")
		for _, p := range strings.Split(paths, ", ") {
			p = strings.TrimSuffix(strings.TrimSpace(p), "/")
			named[p] = true
			if _, err := os.Stat(p); err != nil {
				t.Errorf("README's layout names %s, which does not exist", p)
			}
		}
	}
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if dir := filepath.ToSlash(filepath.Join(root, e.Name())); e.IsDir() && !named[dir] {
				t.Errorf("README's layout omits %s", dir)
			}
		}
	}
}

// designLineBudget is the most lines DESIGN.md may have. A change that
// adds to it makes room by cutting what no longer earns its place; lower
// the budget when the file shrinks.
const designLineBudget = 1515

// TestDesignLineBudget keeps DESIGN.md within designLineBudget lines.
func TestDesignLineBudget(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n > designLineBudget {
		t.Errorf("DESIGN.md has %d lines, over its budget of %d: cut before adding", n, designLineBudget)
	}
}

// TestDocsCiteExistingIdentifiers keeps DESIGN.md and README.md from
// citing code that is not there. Every inline code span that begins with
// pkg.Name or pkg.Type.Member, where pkg is a package of this module, must
// name a declared function, type, method, field, constant, variable or
// test of pkg; a bare pkg.Method may name a method of any type in pkg (the
// docs' shorthand, as in cluster.Close). Every internal/<dir> path a span
// names must exist. Names with an underscore or a star are metric names,
// not Go identifiers, and file names are not citations.
func TestDocsCiteExistingIdentifiers(t *testing.T) {
	decls := moduleDecls(t)
	ident := regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z][A-Za-z0-9]*)(?:\.([A-Za-z][A-Za-z0-9]*))?([^.\w*]|$)`)
	internalDir := regexp.MustCompile(`internal/([a-z0-9]+)`)
	fileExt := regexp.MustCompile(`\.(go|md|txt|json|jsonl|trace|mod|sh|yml|prof)$`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			parts := strings.Split(line, "`")
			for j := 1; j < len(parts); j += 2 {
				span := parts[j]
				for _, m := range internalDir.FindAllStringSubmatch(span, -1) {
					if st, err := os.Stat(filepath.Join("internal", m[1])); err != nil || !st.IsDir() {
						t.Errorf("%s:%d cites `%s`: internal/%s does not exist", doc, i+1, span, m[1])
					}
				}
				m := ident.FindStringSubmatch(span)
				if m == nil || fileExt.MatchString(span) {
					continue
				}
				pkg, ok := decls[m[1]]
				if !ok {
					continue
				}
				name := m[2]
				if m[3] != "" {
					name += "." + m[3]
				}
				if !pkg[name] && !(m[3] == "" && pkg["*."+name]) {
					t.Errorf("%s:%d cites `%s`: package %s declares no %s", doc, i+1, span, m[1], name)
				}
			}
		}
	}
}

// moduleDecls parses every Go file of the module and returns, per package
// name (an external test package folded into the package it tests), the
// names it declares: top-level names as "Name", methods and fields as
// "Type.Member", and every method name once more as "*.Method".
func moduleDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		if name == "main" {
			return nil
		}
		names := decls[name]
		if names == nil {
			names = map[string]bool{}
			decls[name] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					names[decl.Name.Name] = true
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch generic := recv.(type) { // a generic type's receiver names its parameters
				case *ast.IndexExpr:
					recv = generic.X
				case *ast.IndexListExpr:
					recv = generic.X
				}
				names[recv.(*ast.Ident).Name+"."+decl.Name.Name] = true
				names["*."+decl.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							names[id.Name] = true
						}
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields == nil {
							continue
						}
						for _, field := range fields.List {
							for _, id := range field.Names {
								names[spec.Name.Name+"."+id.Name] = true
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}
