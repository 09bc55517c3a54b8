// Command podlint is the static-analysis gate for POD-Diagnosis. It lints
// on two fronts: the registered diagnosis artifacts (process models,
// assertion specifications, the diagnosis-plan catalog, the remediation
// action↔cause bindings, and the trigger chain connecting them: PM, AS,
// DG, XC and RM rules) and the Go source tree (GO001–GO008: wall-clock
// reads, metric naming, mutexes held across blocking sends,
// context.Background on request paths, flight-recorder kinds, goroutine
// leaks, lock ordering, timers in loops). `podlint -rules all` lists
// them.
//
// Usage:
//
//	podlint [flags] [target ...]
//
// Targets are directories of Go source to analyze ("./..." is accepted and
// means the directory tree, matching go-tool convention) and/or JSON
// documents (*.json) — process models or diagnosis plans, told apart by
// their top-level keys — which are linted structurally. With no targets
// the module root is analyzed. The built-in artifact bundles are always
// linted unless -source-only is given.
//
// Flags:
//
//	-json            emit findings as a JSON array instead of text
//	-rules PATTERN   print the matching rules of the registry and exit;
//	                 comma-separated globs over rule IDs ("GO0*", "DG001"),
//	                 plus the aliases "all" (or "*"), "source" (GO*) and
//	                 "model"
//	-source-only     skip the built-in model/spec/tree bundles
//	-models-only     skip the Go source analyzers
//
// Exit status is 0 when no findings of severity error remain (warnings do
// not fail the build), 1 when at least one error finding is reported, and
// 2 on usage or I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"strings"

	"poddiagnosis/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("podlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut    = fs.Bool("json", false, "emit findings as JSON")
		rulesPat   = fs.String("rules", "", "print matching rules and exit (globs over IDs; aliases: all, source, model)")
		sourceOnly = fs.Bool("source-only", false, "lint only Go source, skip the built-in bundles")
		modelsOnly = fs.Bool("models-only", false, "lint only models/specs/trees, skip Go source")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rulesPat != "" {
		return printRules(stdout, stderr, *jsonOut, *rulesPat)
	}
	if *sourceOnly && *modelsOnly {
		fmt.Fprintln(stderr, "podlint: -source-only and -models-only are mutually exclusive")
		return 2
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "podlint:", err)
		return 2
	}
	dirs, docs := splitTargets(fs.Args(), root)

	var findings []lint.Finding

	if !*sourceOnly {
		bundles, err := lint.Builtins()
		if err != nil {
			fmt.Fprintln(stderr, "podlint:", err)
			return 2
		}
		findings = append(findings, lint.LintBundles(bundles...)...)
		findings = append(findings, lint.BuiltinRemediation()...)
		for _, doc := range docs {
			data, err := os.ReadFile(doc)
			if err != nil {
				fmt.Fprintln(stderr, "podlint:", err)
				return 2
			}
			findings = append(findings, lintDoc(filepath.Base(doc), data)...)
		}
	}

	if !*modelsOnly {
		srcFindings, err := lint.LintSource(root, dirs)
		if err != nil {
			fmt.Fprintln(stderr, "podlint:", err)
			return 2
		}
		findings = append(findings, srcFindings...)
	}

	lint.Sort(findings)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "podlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if n := lint.CountErrors(findings); n > 0 {
		if !*jsonOut {
			fmt.Fprintf(stdout, "podlint: %d error(s), %d finding(s)\n", n, len(findings))
		}
		return 1
	}
	return 0
}

// lintDoc routes a JSON document to the diagnosis-plan or process-model
// linter by sniffing its top-level keys: plan documents carry "entry" and
// "assertionId", model documents do not.
func lintDoc(name string, data []byte) []lint.Finding {
	var probe struct {
		Entry       *string `json:"entry"`
		AssertionID *string `json:"assertionId"`
	}
	if err := json.Unmarshal(data, &probe); err == nil && (probe.Entry != nil || probe.AssertionID != nil) {
		return lint.LintPlanDoc(name, data)
	}
	return lint.LintModelDoc(name, data)
}

// printRules writes the rules matching the pattern: comma-separated globs
// over rule IDs, with series aliases.
func printRules(stdout, stderr io.Writer, asJSON bool, pattern string) int {
	var rules []lint.RuleInfo
	for _, r := range lint.Rules() {
		if ruleMatches(r, pattern) {
			rules = append(rules, r)
		}
	}
	if len(rules) == 0 {
		fmt.Fprintf(stderr, "podlint: no rules match %q\n", pattern)
		return 2
	}
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rules); err != nil {
			return 2
		}
		return 0
	}
	for _, r := range rules {
		fmt.Fprintf(stdout, "%s  %-7s  %-6s  %s\n", r.ID, r.Severity, r.Front, r.Summary)
	}
	return 0
}

// ruleMatches applies one comma-separated pattern list to a rule. Each
// element is a glob over the rule ID ("GO0*", "DG001") or an alias: "all"
// or "*" (everything), "source" (the GO series), "model" (the model
// front).
func ruleMatches(r lint.RuleInfo, pattern string) bool {
	for _, p := range strings.Split(pattern, ",") {
		p = strings.TrimSpace(p)
		switch p {
		case "":
			continue
		case "all", "*":
			return true
		case "source":
			if strings.HasPrefix(r.ID, "GO") {
				return true
			}
			continue
		case "model":
			if r.Front == "model" {
				return true
			}
			continue
		}
		if ok, err := path.Match(p, r.ID); err == nil && ok {
			return true
		}
	}
	return false
}

// splitTargets separates Go source directories from model JSON documents.
// The go-tool "/..." suffix is accepted and stripped: podlint always walks
// directory trees. Empty args default to the module root.
func splitTargets(args []string, root string) (dirs, docs []string) {
	for _, a := range args {
		if strings.HasSuffix(a, ".json") {
			docs = append(docs, a)
			continue
		}
		a = strings.TrimSuffix(a, "/...")
		if a == "" || a == "." {
			a = root
		}
		dirs = append(dirs, a)
	}
	if len(dirs) == 0 {
		dirs = []string{root}
	}
	return dirs, docs
}

// moduleRoot finds the enclosing module root (the directory holding go.mod)
// so findings are positioned relative to it regardless of the invocation
// directory. Falls back to the working directory outside a module.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir, nil
		}
		d = parent
	}
}
