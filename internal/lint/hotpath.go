package lint

import (
	"fmt"
	"go/ast"
	"path"
	"sort"
	"strconv"
	"strings"
)

// Hot-path proving: the ingest path (bus publish -> reorder -> pipeline ->
// session -> flight recorder) must stay allocation-lean, and "lean" must be
// enforced, not remembered. A function is a hot path when it carries a
//
//	//podlint:hotpath budget=N
//
// annotation in (or directly above) its doc comment. The budget declares
// how many heap-escape sites (compiler -gcflags=-m diagnostics) the
// function's body may contain; EscapeAnalysis (GO011) enforces it. The
// annotation alone, with no budget, opts into the construct checks (GO010,
// GO009) without pinning an escape count.
//
// hotPathManifest is the repo's authoritative list of known hot paths: the
// functions every profile of the ingest benchmark bottoms out in. Each
// listed function MUST carry the annotation — losing the annotation (say,
// in a refactor) would silently disarm the budget, so GO010 flags a
// manifest entry whose function exists unannotated.

// Budget values of a parsed annotation besides a declared N >= 0.
const (
	noBudget  = -1 // a bare annotation: no escape budget declared
	badBudget = -2 // a malformed tail: reported (GO010), bound as noBudget
)

// parseHotBudget parses the annotation tail: empty, or "budget=N" with
// N >= 0. Anything else is badBudget.
func parseHotBudget(rest string) int {
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return noBudget
	}
	if v, ok := strings.CutPrefix(rest, "budget="); ok {
		if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && n >= 0 {
			return n
		}
	}
	return badBudget
}

// manifestEntry names one required-hot function by package directory
// (module-relative) and rendered name.
type manifestEntry struct {
	pkg string // e.g. "internal/pipeline"
	fn  string // e.g. "(*Processor).Process"
}

// hotPathManifest lists the known ingest hot paths. Adding a function here
// forces it to carry (and keep) a //podlint:hotpath annotation.
var hotPathManifest = []manifestEntry{
	{"internal/logging", "(*Bus).Publish"},
	{"internal/pipeline", "(*Processor).Process"},
	{"internal/pipeline", "(*ReorderBuffer).Offer"},
	{"internal/pipeline", "scanInstanceID"},
	{"internal/pipeline", "scanAMIID"},
	{"internal/pipeline", "scanGroup"},
	{"internal/pipeline", "scanProgress"},
	{"internal/pipeline", "scanSorted"},
	{"internal/process", "(*scan).match"},
	{"internal/core", "(*Session).OnConformance"},
	{"internal/core", "(*Session).observeGap"},
	{"internal/core", "(*Session).recordLogEvent"},
	{"internal/obs/flight", "(*Op).Record"},
}

// hotFunc is one annotated hot-path function.
type hotFunc struct {
	f      *srcFile
	decl   *ast.FuncDecl
	name   string // rendered, e.g. "(*Processor).Process"
	budget int    // declared escape budget, or noBudget
}

// HotFuncInfo is the serializable per-function budget row of the
// -hotpath-report table.
type HotFuncInfo struct {
	// Package is the module-relative package directory.
	Package string `json:"package"`
	// Function is the rendered function name, e.g. "(*Processor).Process".
	Function string `json:"function"`
	// Pos is the declaration position, file:line.
	Pos string `json:"pos"`
	// Budget is the declared heap-escape budget (-1: none declared).
	Budget int `json:"budget"`
	// Escapes is the measured heap-escape site count; -1 until an escape
	// analysis ran.
	Escapes int `json:"escapes"`
	// Sites lists the measured escape diagnostics, file:line: message.
	Sites []string `json:"sites,omitempty"`
}

// funcName renders a FuncDecl the way the manifest and reports name it.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + exprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

// pkgDir returns the file's module-relative package directory.
func (f *srcFile) pkgDir() string { return path.Dir(f.rel) }

// hotFuncsOf resolves the //podlint:hotpath annotations of the files onto
// their function declarations. An annotation binds to a function when it
// sits inside the doc-comment block of the declaration (any line from the
// doc comment's start through the func line).
func hotFuncsOf(files []*srcFile) []*hotFunc {
	var out []*hotFunc
	for _, f := range files {
		if len(f.hotBudgets) == 0 {
			continue
		}
		for _, decl := range f.file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			from := f.line(fd)
			if fd.Doc != nil {
				from = f.fset.Position(fd.Doc.Pos()).Line
			}
			to := f.fset.Position(fd.Name.End()).Line
			for line, budget := range f.hotBudgets {
				if line >= from && line <= to {
					if budget == badBudget {
						budget = noBudget
					}
					out = append(out, &hotFunc{f: f, decl: fd, name: funcName(fd), budget: budget})
					break
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].f.rel != out[j].f.rel {
			return out[i].f.rel < out[j].f.rel
		}
		return out[i].f.line(out[i].decl) < out[j].f.line(out[j].decl)
	})
	return out
}

// lintHotPaths is the whole-tree hot-path pass: malformed annotations and
// the manifest check, then one walk per annotated function for GO010
// (allocation-prone constructs) and GO009 (defer in loop).
func lintHotPaths(files []*srcFile) []Finding {
	var fs []Finding
	for _, f := range files {
		for line, budget := range f.hotBudgets {
			if budget == badBudget && !f.suppressed(RuleSrcHotAlloc, line) {
				fs = append(fs, finding(RuleSrcHotAlloc, fmt.Sprintf("%s:%d", f.rel, line),
					"malformed //podlint:hotpath annotation — want no argument or budget=N with N >= 0; its escape budget is disarmed"))
			}
		}
	}
	hot := hotFuncsOf(files)
	fs = append(fs, lintHotManifest(files, hot)...)
	for _, h := range hot {
		if h.decl.Body != nil {
			w := &hotWalker{h: h, fs: &fs, fmtName: h.f.importName("fmt")}
			ast.Inspect(h.decl.Body, w.visit)
		}
	}
	return fs
}

// lintHotManifest flags manifest functions that exist in the walked tree
// but carry no //podlint:hotpath annotation.
func lintHotManifest(files []*srcFile, hot []*hotFunc) []Finding {
	annotated := make(map[manifestEntry]bool, len(hot))
	for _, h := range hot {
		annotated[manifestEntry{h.f.pkgDir(), h.name}] = true
	}
	var fs []Finding
	for _, want := range hotPathManifest {
		if annotated[want] {
			continue
		}
		// Only flag when the function is actually in the walked tree — a
		// scoped run (podlint ./internal/obs) must not demand annotations
		// for packages it never parsed.
		for _, f := range files {
			if f.pkgDir() != want.pkg {
				continue
			}
			for _, decl := range f.file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || funcName(fd) != want.fn {
					continue
				}
				f.report(&fs, RuleSrcHotAlloc, fd.Name,
					"%s is a manifest hot path but carries no //podlint:hotpath annotation — its allocation budget is disarmed", want.fn)
			}
		}
	}
	return fs
}

// hotWalker is one walk over a hot function's body for two rules.
//
// GO010 flags allocation-prone constructs that almost always betray a
// per-event heap allocation: fmt.Sprintf-family calls, unsized make of a
// map or slice, map composite literals, and closures capturing an
// iteration variable (a fresh closure allocation every pass of the loop).
// The checks are syntactic; what they cannot see (interface boxing through
// fmt's ...any, copy-on-write event chains) the compiler-assisted escape
// budget (GO011) catches. They descend into function literals.
//
// GO009 flags a defer inside a loop: it accumulates until the function
// returns, so a lock "released" by such a defer is in reality held for
// every remaining iteration. A function literal is its own defer scope —
// defers inside it run when the literal returns, typically once per
// iteration — so GO009 stops at literals.
type hotWalker struct {
	h       *hotFunc
	fs      *[]Finding
	fmtName string
	loops   []ast.Node // enclosing loops, innermost last
	lits    int        // enclosing function literals
}

func (w *hotWalker) visit(n ast.Node) bool {
	h, f := w.h, w.h.f
	switch v := n.(type) {
	case *ast.ForStmt:
		w.loop(v, v.Init, v.Cond, v.Post, v.Body)
		return false
	case *ast.RangeStmt:
		w.loop(v, v.Body)
		return false
	case *ast.FuncLit:
		if len(w.loops) > 0 && capturesLoopVar(v, w.loops[len(w.loops)-1]) {
			f.report(w.fs, RuleSrcHotAlloc, v,
				"%s: closure capturing a loop variable allocates every iteration — hoist it out of the loop", h.name)
		}
		w.lits++
		ast.Inspect(v.Body, w.visit)
		w.lits--
		return false
	case *ast.DeferStmt:
		if len(w.loops) > 0 && w.lits == 0 {
			f.report(w.fs, RuleSrcDeferInHotLoop, v,
				"%s: defer inside a loop runs only at function return — hoist it or scope the loop body into a function", h.name)
		}
	case *ast.CompositeLit:
		if _, ok := v.Type.(*ast.MapType); ok {
			f.report(w.fs, RuleSrcHotAlloc, v,
				"%s: map literal allocates on the hot path — hoist it to a package variable or reuse a buffer", h.name)
		}
	case *ast.CallExpr:
		if fn := pkgCall(v, w.fmtName, "Sprintf", "Sprint", "Sprintln", "Errorf"); fn != "" {
			f.report(w.fs, RuleSrcHotAlloc, v,
				"%s: fmt.%s allocates (format state + boxed ...any args) on the hot path", h.name, fn)
		}
		w.checkMake(v)
	}
	return true
}

// checkMake flags unsized make calls: make(map[...]) with no size hint and
// make([]T, 0) with no capacity — both grow by reallocating on the path
// that was supposed to be allocation-flat.
func (w *hotWalker) checkMake(call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return
	}
	switch call.Args[0].(type) {
	case *ast.MapType:
		if len(call.Args) == 1 {
			w.h.f.report(w.fs, RuleSrcHotAlloc, call,
				"%s: unsized make(map) on the hot path — pass a size hint", w.h.name)
		}
	case *ast.ArrayType:
		if len(call.Args) == 2 {
			if lit, ok := call.Args[1].(*ast.BasicLit); ok && lit.Value == "0" {
				w.h.f.report(w.fs, RuleSrcHotAlloc, call,
					"%s: make(slice, 0) with no capacity on the hot path — preallocate", w.h.name)
			}
		}
	}
}

// loop visits the given parts of a loop with the loop pushed on the stack.
func (w *hotWalker) loop(loop ast.Node, parts ...ast.Node) {
	w.loops = append(w.loops, loop)
	inspect(w.visit, parts...)
	w.loops = w.loops[:len(w.loops)-1]
}

// capturesLoopVar reports whether the literal references an identifier
// declared by the loop (range key/value, or a for-init := binding).
func capturesLoopVar(fl *ast.FuncLit, loop ast.Node) bool {
	vars := make(map[string]bool)
	addIdent := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			vars[id.Name] = true
		}
	}
	switch v := loop.(type) {
	case *ast.RangeStmt:
		addIdent(v.Key)
		addIdent(v.Value)
	case *ast.ForStmt:
		if as, ok := v.Init.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				addIdent(lhs)
			}
		}
	}
	if len(vars) == 0 {
		return false
	}
	captured := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && vars[id.Name] {
			captured = true
		}
		return !captured
	})
	return captured
}
