package lint

import (
	"go/ast"
	"regexp"
	"strconv"
	"strings"

	"poddiagnosis/internal/obs/flight"
)

// metricMethods are the obs.Registry constructors whose first argument is
// a metric name.
var metricMethods = []string{"Counter", "CounterVec", "Gauge", "GaugeVec", "Histogram", "HistogramVec"}

// metricNameRE is the project's metric naming convention: one flat
// pod_-prefixed snake_case identifier, so every series lands in one
// namespace on the /metrics exposition.
var metricNameRE = regexp.MustCompile(`^pod_[a-z_]+$`)

// flightImportPath is the flight recorder package whose Kind enum GO005
// validates against.
const flightImportPath = "poddiagnosis/internal/obs/flight"

// knownFlightKinds is built from the flight package's registered enum,
// so the analyzer can never drift from the source of truth.
var knownFlightKinds = func() map[string]bool {
	out := make(map[string]bool, len(flight.Kinds()))
	for _, k := range flight.Kinds() {
		out[string(k)] = true
	}
	return out
}()

// nodeWalker is one walk over a file's AST that runs every per-file GO
// rule needing no cross-file state:
//
//   - GO001: no time.Now or time.Since outside internal/clock. Drain
//     retention, TTL clamping and step timers all run on injected clocks; a
//     stray wall-clock read silently diverges from the scaled simulation
//     clock and breaks deterministic replays. Wall-clock measurements that
//     are genuinely wanted go through clock.Wall.
//   - GO002: the first argument of every metric constructor, when a string
//     literal, must match ^pod_[a-z_]+$ (dynamic names are not checked —
//     none exist, and they would break grep-ability anyway).
//   - GO004: handlers and clients under internal/rest must propagate the
//     request's context; a fresh context.Background (or TODO) there
//     detaches the work from cancellation, deadlines and the request's
//     trace span.
//   - GO005: every string literal used as a flight-recorder entry kind — a
//     flight.Kind("...") conversion or a Kind: "..." field of a flight.Entry
//     literal — must name a registered kind. An invented kind silently
//     fragments timelines: the REST ?kind= filter rejects it and renderers
//     cannot classify it.
//   - GO006: a `go func() { ... }()` whose body holds an unconditional
//     `for` performing channel operations with no return or break can never
//     exit; once its peer stops draining, the goroutine parks forever. The
//     fix shape is a select that also watches a stop/ctx.Done channel and
//     returns. Loops with a loop clause, or any lexical return/break/goto
//     inside, are assumed to terminate (a break targeting an inner select
//     still counts as an exit path — false negatives over noise).
//   - GO008: a timer channel created per loop iteration. time.After (and
//     the injected clock's .After) allocates a timer the runtime cannot
//     collect until it fires; time.Tick leaks its ticker outright; a
//     NewTimer/NewTicker with no .Stop() later in the innermost enclosing
//     loop body leaks likewise. internal/clock, the one place allowed to
//     wrap the runtime timers, is exempt.
//
// Import names are resolved once per file; an empty name switches the
// rules that need it off. The walk keeps the stack of enclosing loop
// bodies for GO008 and whether it is inside a goroutine literal (and
// inside a loop GO006 already reported) for GO006.
type nodeWalker struct {
	f  *srcFile
	fs *[]Finding

	clockPkg   bool   // the file is in internal/clock: GO001 and GO008 are off
	timeName   string // local name of "time" ("" in internal/clock)
	ctxName    string // local name of "context" ("" outside internal/rest)
	flightName string // local name of the flight package

	loops  []*ast.BlockStmt // bodies of the enclosing loops, innermost last
	inGo   bool             // inside the body of a `go func() { ... }()`
	inLeak bool             // inside a loop GO006 has reported
}

// walkNodes runs the per-file node walk over one parsed file.
func (f *srcFile) walkNodes(fs *[]Finding) {
	w := &nodeWalker{f: f, fs: fs,
		clockPkg:   f.rel == "internal/clock" || strings.HasPrefix(f.rel, "internal/clock/"),
		flightName: f.importName(flightImportPath),
	}
	if !w.clockPkg {
		w.timeName = f.importName("time")
	}
	if strings.HasPrefix(f.rel, "internal/rest/") {
		w.ctxName = f.importName("context")
	}
	ast.Inspect(f.file, w.visit)
}

// visit dispatches one node. Loops and goroutine literals walk their own
// children so the loop stack and the GO006 scope nest with the source.
func (w *nodeWalker) visit(n ast.Node) bool {
	switch v := n.(type) {
	case *ast.ForStmt:
		leak := w.leaks(v)
		inspect(w.visit, v.Init, v.Cond, v.Post)
		inLeak := w.inLeak
		w.inLeak = inLeak || leak
		w.loopBody(v.Body)
		w.inLeak = inLeak
		return false
	case *ast.RangeStmt:
		inspect(w.visit, v.Key, v.Value, v.X)
		w.loopBody(v.Body)
		return false
	case *ast.GoStmt:
		fl, ok := v.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		inGo, inLeak := w.inGo, w.inLeak
		w.inGo, w.inLeak = true, false
		ast.Inspect(fl.Body, w.visit)
		w.inGo, w.inLeak = inGo, inLeak
		for _, arg := range v.Call.Args {
			ast.Inspect(arg, w.visit)
		}
		return false
	case *ast.CallExpr:
		w.call(v)
	case *ast.UnaryExpr:
		w.timerRecv(v)
	case *ast.CompositeLit:
		w.flightEntry(v)
	}
	return true
}

// inspect continues a walk into each non-nil node. Walkers that keep a
// scope stack visit a node's children through it after pushing.
func inspect(visit func(ast.Node) bool, nodes ...ast.Node) {
	for _, n := range nodes {
		if n != nil {
			ast.Inspect(n, visit)
		}
	}
}

// loopBody visits a loop body with the body pushed on the loop stack.
func (w *nodeWalker) loopBody(body *ast.BlockStmt) {
	w.loops = append(w.loops, body)
	ast.Inspect(body, w.visit)
	w.loops = w.loops[:len(w.loops)-1]
}

// leaks flags (GO006) and reports whether the loop is an exit-less channel
// loop inside a goroutine literal. Loops nested in a flagged one are not
// flagged again.
func (w *nodeWalker) leaks(loop *ast.ForStmt) bool {
	if !w.inGo || w.inLeak || loop.Cond != nil || loop.Init != nil || loop.Post != nil {
		return false
	}
	if loopHasExit(loop.Body) || !loopTouchesChannels(loop.Body) {
		return false
	}
	w.f.report(w.fs, RuleSrcGoroutineLeak, loop,
		"goroutine loops forever on channel operations with no return or break — add a stop/ctx.Done case that returns")
	return true
}

// call runs the call-shaped checks: GO001, GO002, GO004, GO005 and the
// time-package forms of GO008.
func (w *nodeWalker) call(call *ast.CallExpr) {
	f, fs := w.f, w.fs
	if fn := pkgCall(call, w.timeName, "Now", "Since"); fn != "" {
		f.report(fs, RuleSrcWallClock, call,
			"time.%s outside internal/clock — use clock.Wall or an injected clock.Clock", fn)
	}
	if fn := pkgCall(call, w.ctxName, "Background", "TODO"); fn != "" {
		f.report(fs, RuleSrcContextBackground, call,
			"context.%s on a request path — propagate the caller's context", fn)
	}
	if len(w.loops) > 0 {
		if fn := pkgCall(call, w.timeName, "After", "Tick"); fn != "" {
			f.report(fs, RuleSrcTimerInLoop, call,
				"time.%s in a loop creates an uncollectable timer per iteration — hoist a Ticker and defer Stop", fn)
		} else if fn := pkgCall(call, w.timeName, "NewTimer", "NewTicker"); fn != "" && !stoppedInBody(w.loops[len(w.loops)-1], call) {
			f.report(fs, RuleSrcTimerInLoop, call,
				"time.%s in a loop with no Stop in the loop body — the timer leaks every iteration", fn)
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	for _, m := range metricMethods {
		if sel.Sel.Name == m {
			w.metricName(call.Args[0])
			break
		}
	}
	if pkgCall(call, w.flightName, "Kind") != "" && len(call.Args) == 1 {
		w.flightKind(call.Args[0])
	}
}

// metricName flags a literal metric name off the convention (GO002).
func (w *nodeWalker) metricName(arg ast.Expr) {
	if name, lit := stringLit(arg); lit != nil && !metricNameRE.MatchString(name) {
		w.f.report(w.fs, RuleSrcMetricName, lit, "metric name %q does not match ^pod_[a-z_]+$", name)
	}
}

// timerRecv is the injected-clock form of GO008: a receive from a
// one-argument x.After(d) call in a loop. Method calls named After with
// one argument on non-time receivers are overwhelmingly clock
// implementations here; time.Time.After takes one argument too but returns
// bool and never appears as <-t.After(u). A receive from time.After itself
// is left to call, so each site is reported once.
func (w *nodeWalker) timerRecv(v *ast.UnaryExpr) {
	if w.clockPkg || len(w.loops) == 0 || v.Op.String() != "<-" {
		return
	}
	call, ok := v.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "After" || pkgCall(call, w.timeName, "After") != "" {
		return
	}
	w.f.report(w.fs, RuleSrcTimerInLoop, v,
		"<-%s.After(...) in a loop creates a timer channel per iteration — hoist a Ticker (clock.NewTicker) and defer Stop", exprString(sel.X))
}

// flightEntry checks the Kind field of a flight.Entry literal (GO005).
func (w *nodeWalker) flightEntry(v *ast.CompositeLit) {
	sel, ok := v.Type.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Entry" || w.flightName == "" {
		return
	}
	if id, ok := sel.X.(*ast.Ident); !ok || id.Name != w.flightName {
		return
	}
	for _, el := range v.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Kind" {
				w.flightKind(kv.Value)
			}
		}
	}
}

// flightKind flags a string literal that is not a registered kind (GO005).
// Non-literal expressions (typically the named Kind constants) pass.
func (w *nodeWalker) flightKind(e ast.Expr) {
	if name, lit := stringLit(e); lit != nil && !knownFlightKinds[name] {
		w.f.report(w.fs, RuleSrcFlightKind, lit,
			"timeline entry kind %q is not a registered flight.Kind (known: %v)", name, flight.Kinds())
	}
}

// stringLit returns the value of a string literal (nil lit otherwise).
func stringLit(e ast.Expr) (string, *ast.BasicLit) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind.String() != "STRING" {
		return "", nil
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", nil
	}
	return s, lit
}

// loopHasExit reports whether the loop body lexically contains a return,
// break or goto (function literals excluded: their returns do not exit
// the loop).
func loopHasExit(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if v.Tok.String() == "break" || v.Tok.String() == "goto" {
				found = true
			}
		}
		return !found
	})
	return found
}

// loopTouchesChannels reports whether the loop body performs channel
// operations: a send, a unary receive, or a select.
func loopTouchesChannels(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if v.Op.String() == "<-" {
				found = true
			}
		}
		return !found
	})
	return found
}

// stoppedInBody reports whether any `.Stop()` call (direct or deferred)
// appears in the body after the given constructor call.
func stoppedInBody(body *ast.BlockStmt, after *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call == after || call.Pos() < after.Pos() {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Stop" {
			found = true
		}
		return !found
	})
	return found
}
