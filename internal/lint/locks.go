package lint

import (
	"go/ast"
	"maps"
	"path"
	"sort"
	"strings"
)

// Held-lock analysis: one statement walker per function body threads the
// set of held locks through the code and serves two rules.
//
// GO003 forbids a blocking channel send while a mutex is held. A consumer
// that needs the same lock to drain the channel deadlocks the publisher
// (the Bus.Publish spin bug class); the accepted pattern is a select with
// a default clause, which makes bounded progress and can never block
// under the lock.
//
// GO007 builds the global lock-acquisition graph across every walked file
// — an edge a→b for each acquisition of b at a program point where a is
// held — and flags every cycle. A cycle means two code paths can take the
// same two locks in opposite orders, which is the textbook ABBA deadlock.
//
// The analysis is syntactic and lexical: Lock/RLock on a receiver
// expression marks it held until the matching Unlock/RUnlock in the same
// statement sequence (a deferred Unlock holds it for the remainder of the
// function), branches fork a copy of the held set, and function literals
// start a fresh scope. Lock identity is normalised as pkgdir.Recv.fieldpath:
// the receiver identifier of a method is replaced by its type name, so
// (*Manager).run holding m.mu and (*Manager).sweep holding m.mu refer to
// one lock "internal/core.Manager.mu". Non-receiver expressions keep their
// rendering prefixed with the package dir — a per-package approximation
// that cannot confuse locks across packages.

// heldLocks maps each held lock's normalised id (GO007) to its source
// rendering (GO003 messages).
type heldLocks map[string]string

// lockEdge is one observed "acquired b while holding a" ordering.
type lockEdge struct {
	from, to string
	f        *srcFile
	line     int    // line of the inner acquisition
	pos      string // position of the inner acquisition
	fn       string // function the ordering was observed in
}

// lockWalker walks the function bodies of one declaration.
type lockWalker struct {
	f      *srcFile
	fs     *[]Finding
	edges  *[]lockEdge
	fnName string
	recv   [2]string // receiver identifier and bare type name of a method
}

// walkLocks runs the held-lock walk over every function of the file,
// reporting GO003 findings and appending GO007 ordering edges.
func (f *srcFile) walkLocks(fs *[]Finding, edges *[]lockEdge) {
	for _, decl := range f.file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		w := &lockWalker{f: f, fs: fs, edges: edges, fnName: funcName(fd), recv: recvIdent(fd)}
		w.walkFuncBody(fd.Body)
	}
}

// funcName renders a FuncDecl as findings name it, e.g.
// "(*Processor).Process".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + exprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

// recvIdent returns the receiver identifier name and bare type name of a
// method ("" for plain functions).
func recvIdent(fd *ast.FuncDecl) [2]string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return [2]string{}
	}
	t := exprString(fd.Recv.List[0].Type)
	return [2]string{fd.Recv.List[0].Names[0].Name, strings.TrimPrefix(t, "*")}
}

// pkgDir returns the file's module-relative package directory.
func (f *srcFile) pkgDir() string { return path.Dir(f.rel) }

// lockID normalizes a lock receiver expression to its global identity.
func (w *lockWalker) lockID(expr string) string {
	if w.recv[0] != "" {
		if expr == w.recv[0] {
			expr = w.recv[1]
		} else if rest, ok := strings.CutPrefix(expr, w.recv[0]+"."); ok {
			expr = w.recv[1] + "." + rest
		}
	}
	return w.f.pkgDir() + "." + expr
}

// walkFuncBody analyzes one function body with an empty held set, then
// recurses into the function literals defined directly inside it — each a
// fresh scope, since a literal generally runs outside the locked region.
func (w *lockWalker) walkFuncBody(body *ast.BlockStmt) {
	w.stmts(body.List, heldLocks{})
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, fl)
			return false // nested literals are found by the recursive call
		}
		return true
	})
	for _, fl := range lits {
		w.walkFuncBody(fl.Body)
	}
}

// stmts walks a statement sequence, threading the held-lock set through.
func (w *lockWalker) stmts(list []ast.Stmt, held heldLocks) heldLocks {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

// stmt processes one statement and returns the held set after it.
// Branching statements analyze their bodies on a copy: a lock acquired on
// one conditional path is not assumed held afterwards (approximation).
// Function literals are NOT descended into here — walkFuncBody owns them.
func (w *lockWalker) stmt(s ast.Stmt, held heldLocks) heldLocks {
	switch v := s.(type) {
	case *ast.ExprStmt:
		if call, ok := v.X.(*ast.CallExpr); ok {
			if recv, op := lockOp(call); op != "" {
				held = w.apply(call, recv, op == "lock", held)
			}
		}
	case *ast.SendStmt:
		w.flagSend(v, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() releases only at return: the lock stays held
		// for the analysis of the remaining statements, which is the
		// common pattern the rules exist for.
	case *ast.LabeledStmt:
		return w.stmt(v.Stmt, held)
	case *ast.BlockStmt:
		return w.stmts(v.List, held)
	case *ast.IfStmt:
		if v.Init != nil {
			held = w.stmt(v.Init, held)
		}
		w.stmts(v.Body.List, maps.Clone(held))
		if v.Else != nil {
			w.stmt(v.Else, maps.Clone(held))
		}
	case *ast.ForStmt:
		h := maps.Clone(held)
		if v.Init != nil {
			h = w.stmt(v.Init, h)
		}
		w.stmts(v.Body.List, h)
	case *ast.RangeStmt:
		w.stmts(v.Body.List, maps.Clone(held))
	case *ast.SwitchStmt:
		w.clauses(v.Body, held)
	case *ast.TypeSwitchStmt:
		w.clauses(v.Body, held)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		for _, c := range v.Body.List {
			// A send as a comm case of a select WITH default is
			// non-blocking — the sanctioned pattern under a lock.
			if cc, ok := c.(*ast.CommClause); ok {
				if send, ok := cc.Comm.(*ast.SendStmt); ok && !hasDefault {
					w.flagSend(send, held)
				}
			}
		}
		w.clauses(v.Body, held)
	}
	return held
}

// clauses walks each case or comm clause body on its own copy of held.
func (w *lockWalker) clauses(body *ast.BlockStmt, held heldLocks) {
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			w.stmts(cc.Body, maps.Clone(held))
		case *ast.CommClause:
			w.stmts(cc.Body, maps.Clone(held))
		}
	}
}

// apply applies one acquisition or release to a copy of held. An
// acquisition records an ordering edge from every lock already held.
func (w *lockWalker) apply(call *ast.CallExpr, recv string, acquire bool, held heldLocks) heldLocks {
	id := w.lockID(recv)
	held = maps.Clone(held)
	if !acquire {
		delete(held, id)
		return held
	}
	for h := range held {
		if h != id {
			*w.edges = append(*w.edges, lockEdge{from: h, to: id,
				f: w.f, line: w.f.line(call), pos: w.f.pos(call), fn: w.fnName})
		}
	}
	held[id] = recv
	return held
}

// flagSend reports a blocking send performed while any lock is held.
func (w *lockWalker) flagSend(s *ast.SendStmt, held heldLocks) {
	if len(held) == 0 {
		return
	}
	names := make([]string, 0, len(held))
	for _, n := range held {
		names = append(names, n)
	}
	sort.Strings(names)
	w.f.report(w.fs, RuleSrcMutexChannelSend, s,
		"blocking send on %s while %s is locked — release the lock or use a select with default",
		exprString(s.Chan), strings.Join(names, ", "))
}

// lockOp classifies a call as a lock acquisition or release and returns
// the receiver expression's rendering.
func lockOp(call *ast.CallExpr) (recv, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return exprString(sel.X), "lock"
	case "Unlock", "RUnlock":
		return exprString(sel.X), "unlock"
	}
	return "", ""
}

// lockCycleFindings detects cycles in the ordering graph and reports one
// finding per distinct cycle (canonicalized by its sorted lock set),
// positioned at the first contributing edge.
func lockCycleFindings(edges []lockEdge) []Finding {
	succ := make(map[string]map[string]lockEdge)
	for _, e := range edges {
		if succ[e.from] == nil {
			succ[e.from] = make(map[string]lockEdge)
		}
		if _, dup := succ[e.from][e.to]; !dup {
			succ[e.from][e.to] = e
		}
	}
	// reaches reports whether `to` is reachable from `from`.
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for next := range succ[n] {
				if next == to {
					return true
				}
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].pos != edges[j].pos {
			return edges[i].pos < edges[j].pos
		}
		return edges[i].to < edges[j].to
	})
	var fs []Finding
	reported := make(map[string]bool)
	for _, e := range edges {
		if e.from == e.to || !reaches(e.to, e.from) {
			continue
		}
		key := e.from + "\x00" + e.to
		if e.to < e.from {
			key = e.to + "\x00" + e.from
		}
		if reported[key] {
			continue
		}
		reported[key] = true
		if e.f.suppressed(RuleSrcLockOrder, e.line) {
			continue
		}
		fs = append(fs, finding(RuleSrcLockOrder, e.pos,
			"lock-order cycle: %s acquires %s while holding %s, but another path orders them oppositely — ABBA deadlock",
			e.fn, e.to, e.from))
	}
	return fs
}
