package lwfs_test

import (
	"os"
	"path/filepath"
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
const designLineBudget = 1549

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
