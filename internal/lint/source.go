package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
)

// srcFile is one parsed Go source file with the context the analyzers
// need: its module-relative path, import aliases, and the //podlint:ignore
// suppressions it declares.
type srcFile struct {
	rel     string // slash-separated path relative to the module root
	fset    *token.FileSet
	file    *ast.File
	ignores map[int][]string // comment line -> suppressed rule ids ("" = all)
}

// LintSource parses every non-test Go file under the target directories
// (testdata, vendor and dot-directories are skipped) and runs the GO
// analyzers: per file, one node walk (GO001, GO002, GO004, GO005, GO006,
// GO008) and one held-lock walk per function (GO003, plus the edges of the
// GO007 lock-ordering graph); then, over the whole tree, the lock-order
// cycles. root is the module root; findings are positioned relative to
// it. Suppressed findings are dropped before returning.
func LintSource(root string, targets []string) ([]Finding, error) {
	files, err := loadSources(root, targets)
	if err != nil {
		return nil, err
	}
	var fs []Finding
	var edges []lockEdge
	for _, f := range files {
		f.walkNodes(&fs)
		f.walkLocks(&fs, &edges)
	}
	fs = append(fs, lockCycleFindings(edges)...)
	Sort(fs)
	return fs, nil
}

// loadSources walks the targets and parses the Go files in scope.
func loadSources(root string, targets []string) ([]*srcFile, error) {
	if len(targets) == 0 {
		targets = []string{root}
	}
	var out []*srcFile
	seen := make(map[string]bool)
	for _, target := range targets {
		err := filepath.WalkDir(target, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if name == "testdata" || name == "vendor" || (strings.HasPrefix(name, ".") && path != target) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || seen[path] {
				return nil
			}
			seen[path] = true
			f, err := parseSource(root, path)
			if err != nil {
				return err
			}
			out = append(out, f)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: walk %s: %w", target, err)
		}
	}
	return out, nil
}

// parseSource parses one file and collects its suppression comments.
func parseSource(root, path string) (*srcFile, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("lint: parse %s: %w", path, err)
	}
	rel, err := filepath.Rel(root, path)
	if err != nil {
		rel = path
	}
	sf := &srcFile{rel: filepath.ToSlash(rel), fset: fset, file: file, ignores: make(map[int][]string)}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, "podlint:ignore")
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			var rules []string
			for _, f := range strings.FieldsFunc(strings.TrimSpace(rest), func(r rune) bool { return r == ',' || r == ' ' }) {
				if _, known := ruleTable[f]; known {
					rules = append(rules, f)
				} else {
					break // first non-rule token starts the free-form reason
				}
			}
			if len(rules) == 0 {
				rules = []string{""} // no rule list: suppress everything
			}
			sf.ignores[line] = append(sf.ignores[line], rules...)
		}
	}
	return sf, nil
}

// pos renders a node's position as rel/path.go:line.
func (f *srcFile) pos(n ast.Node) string {
	p := f.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", f.rel, p.Line)
}

// line returns a node's 1-based source line.
func (f *srcFile) line(n ast.Node) int { return f.fset.Position(n.Pos()).Line }

// suppressed reports whether the rule is ignored at the given line — by a
// trailing comment on the line itself or a comment on the line above.
func (f *srcFile) suppressed(rule string, line int) bool {
	for _, l := range []int{line, line - 1} {
		for _, r := range f.ignores[l] {
			if r == "" || r == rule {
				return true
			}
		}
	}
	return false
}

// importName returns the local name under which the file imports the given
// path ("" when not imported): the alias if one is declared, the base
// package name otherwise.
func (f *srcFile) importName(importPath string) string {
	for _, imp := range f.file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != importPath {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}

// pkgCall matches a call of the form <pkg>.<fn>(...) where pkg is the
// file-local name of an imported package. It returns the matched function
// name ("" when the call does not match). Local shadowing of the package
// name is not tracked — an accepted approximation for this codebase.
func pkgCall(call *ast.CallExpr, pkgName string, fns ...string) string {
	if pkgName == "" {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != pkgName {
		return ""
	}
	for _, fn := range fns {
		if sel.Sel.Name == fn {
			return fn
		}
	}
	return ""
}

// exprString renders a (small) expression for lock-receiver identity and
// finding messages.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return exprString(v.X)
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	default:
		return "?"
	}
}

// report appends a finding unless a //podlint:ignore comment suppresses it.
func (f *srcFile) report(fs *[]Finding, rule string, n ast.Node, format string, args ...any) {
	if f.suppressed(rule, f.line(n)) {
		return
	}
	*fs = append(*fs, finding(rule, f.pos(n), format, args...))
}
