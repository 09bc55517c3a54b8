package lint

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goldenPath holds every source-front finding over the fixture trees and
// over this repository, one "tree<TAB>finding" line each.
const goldenPath = "testdata/source_findings.golden"

// sourceFindings renders LintSource over every fixture tree the analyzer
// tests use, then over the repository, in the golden's line format.
func sourceFindings(t *testing.T) string {
	t.Helper()
	trees := map[string]map[string]string{
		"coverage":              coverageTree,
		"go-rules":              goRulesTree,
		"hotpath":               concurrencyTree, // the golden's key for this tree; renaming it would move its lines
		"lock-order-consistent": lockOrderConsistentTree,
		"lock-order-suppressed": lockOrderSuppressedTree,
		"suppression":           suppressionTree,
	}
	names := make([]string, 0, len(trees))
	for name := range trees {
		names = append(names, name)
	}
	sort.Strings(names)
	roots := make([]string, len(names))
	for i, name := range names {
		roots[i] = writeTree(t, trees[name])
	}
	repo, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	names = append(names, "repo")
	roots = append(roots, repo)

	var sb strings.Builder
	for i, root := range roots {
		fs, err := LintSource(root, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			sb.WriteString(names[i] + "\t" + f.String() + "\n")
		}
	}
	return sb.String()
}

// TestSourceFindingsGolden pins the source front byte for byte: a change
// to how the analyzers walk the AST must not move, drop, add or reword a
// finding. A deliberate change to a rule edits the golden by hand; the
// failure lists exactly the lines to add and remove.
func TestSourceFindingsGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := sourceFindings(t)
	if got == string(want) {
		return
	}
	wantSet := make(map[string]bool)
	for _, l := range strings.Split(string(want), "\n") {
		wantSet[l] = true
	}
	gotSet := make(map[string]bool)
	for _, l := range strings.Split(got, "\n") {
		gotSet[l] = true
		if !wantSet[l] {
			t.Errorf("extra:   %s", l)
		}
	}
	for _, l := range strings.Split(string(want), "\n") {
		if !gotSet[l] {
			t.Errorf("missing: %s", l)
		}
	}
	t.Errorf("source findings differ from %s", goldenPath)
}
