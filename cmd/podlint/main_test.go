package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// podlint runs the command in-process and returns its exit code and output.
func podlint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRulesGlobListsSourceRules(t *testing.T) {
	code, out, _ := podlint(t, "-rules", "GO0*")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	rows := strings.Split(strings.TrimSpace(out), "\n")
	if len(rows) != 8 {
		t.Fatalf("want 8 GO rules, got %d:\n%s", len(rows), out)
	}
	for _, r := range rows {
		if !strings.HasPrefix(r, "GO0") {
			t.Errorf("row outside the GO series: %q", r)
		}
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-rules", "nomatch"},
		{"-source-only", "-models-only"},
		{"-fix", "./..."},
	} {
		if code, _, _ := podlint(t, args...); code != 2 {
			t.Errorf("podlint %v: exit %d, want 2", args, code)
		}
	}
}

func TestBrokenModelDocExits1(t *testing.T) {
	doc := filepath.Join(t.TempDir(), "broken.json")
	const broken = `{"id": "broken",
  "nodes": [
    {"id": "s", "kind": 1},
    {"id": "a", "name": "A", "kind": 2, "stepId": "step1", "patterns": ["("]},
    {"id": "e", "kind": 4}
  ],
  "edges": [{"from": "s", "to": "a"}, {"from": "a", "to": "e"}]}`
	if err := os.WriteFile(doc, []byte(broken), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := podlint(t, "-models-only", doc)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "error PM003") {
		t.Errorf("want a PM003 finding for the bad pattern:\n%s", out)
	}
}
