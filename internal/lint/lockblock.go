package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockBlock flags operations that can block while a sync.Mutex/RWMutex
// may be held: channel sends and receives, selects without a default,
// ranging over a channel, time.Sleep, sync.Cond/WaitGroup waits, network
// I/O (transport.Endpoint.Send, package net), the blocking batch pulls
// (queue.FIFO.PopBatch, Endpoint.Recv), the blocking gcs
// entry points (Group.Multicast/Leave, Node.Join/Close) and the blocking core
// invocation surface (Binding/Proxy/G2G Call/Read/Invoke/InvokeCall wait for
// replies, InvokeAsync blocks on a full call window, Call.Await parks
// until the future completes). Every gcs event-loop method runs under the
// group mutex; a blocking call there stalls the whole protocol state
// machine (and can deadlock against the transport pump feeding it).
//
// Lock state is tracked two ways, matching the codebase's conventions:
// explicit x.Lock()/x.Unlock() pairs are followed linearly through a
// function body (defer x.Unlock() holds to the end), and functions whose
// name ends in "Locked" are treated as entered with the mutex held. The
// under-lock property propagates through same-package static calls (a
// helper called from a locked region inherits it), but not through `go`
// statements, deferred calls, or function literals that are not invoked
// immediately.
func LockBlock() *Analyzer {
	return &Analyzer{
		Name:    "lockblock",
		Doc:     "no blocking operations while a mutex is held in event-loop code",
		Applies: pathIn("internal/gcs", "internal/core"),
		Run:     runLockBlock,
	}
}

// blockOp is one potentially blocking operation found in a function body.
type blockOp struct {
	pos  token.Pos
	what string
	held bool   // a mutex was locally held at this point
	lock string // the locally held lock's expression, if held
}

// fnFacts is the per-function summary of pass 1. Call sites and their
// resolution live in the shared call graph; the walker contributes only
// what the graph cannot know — the lock state at each site.
type fnFacts struct {
	decl   *ast.FuncDecl
	obj    *types.Func
	byName bool // name ends in "Locked": entered with the mutex held
	blocks []blockOp
	heldAt map[*ast.CallExpr]bool // lock state at each visited call site
}

func runLockBlock(p *Package) []Diagnostic {
	cg := BuildCallGraph([]*Package{p})
	facts := make(map[*types.Func]*fnFacts, len(cg.Nodes()))
	for _, node := range cg.Nodes() {
		ff := &fnFacts{
			decl:   node.Decl,
			obj:    node.Fn,
			byName: strings.HasSuffix(node.Decl.Name.Name, "Locked"),
			heldAt: map[*ast.CallExpr]bool{},
		}
		w := &lockWalker{p: p, ff: ff, held: map[string]bool{}}
		w.block(node.Decl.Body)
		facts[node.Fn] = ff
	}

	// Propagate "may run with a mutex held" through the call graph's
	// static same-package edges: seeded by *Locked naming and by call
	// sites inside locked regions, then closed transitively (a function
	// that may run locked passes the property to everything it calls).
	// Go statements, deferred calls and function literals that escape the
	// call do not inherit the caller's locks, so those edges are skipped.
	underLock := make(map[*types.Func]bool)
	via := make(map[*types.Func]string)
	for _, node := range cg.Nodes() {
		if facts[node.Fn].byName {
			underLock[node.Fn] = true
			via[node.Fn] = "its *Locked name"
		}
	}
	for changed := true; changed; {
		changed = false
		for _, node := range cg.Nodes() {
			ff := facts[node.Fn]
			callerLocked := underLock[node.Fn]
			for _, e := range node.Out {
				if e.Go || e.Defer || e.InLit || e.Callee == nil || e.Callee.Pkg() != p.Types {
					continue
				}
				if _, known := facts[e.Callee]; !known {
					continue
				}
				if (ff.heldAt[e.Call] || callerLocked) && !underLock[e.Callee] {
					underLock[e.Callee] = true
					via[e.Callee] = node.Fn.Name()
					changed = true
				}
			}
		}
	}

	var diags []Diagnostic
	for _, node := range cg.Nodes() {
		ff := facts[node.Fn]
		for _, b := range ff.blocks {
			switch {
			case b.held:
				diags = append(diags, Diagnostic{
					Rule: "lockblock",
					Pos:  p.Fset.Position(b.pos),
					Msg:  fmt.Sprintf("%s while %s is held", b.what, b.lock),
				})
			case underLock[ff.obj]:
				diags = append(diags, Diagnostic{
					Rule: "lockblock",
					Pos:  p.Fset.Position(b.pos),
					Msg:  fmt.Sprintf("%s in %s, which can run with a mutex held (via %s)", b.what, ff.obj.Name(), via[ff.obj]),
				})
			}
		}
	}
	return diags
}

// lockWalker scans one function body in source order, tracking which
// mutexes are held. The scan is deliberately linear: a branch that
// unlocks-and-returns clears the state for the statements after it, which
// can miss a fall-through path (an acceptable false negative) but never
// invents a lock that was already released (no false positives from the
// common unlock-early idiom).
type lockWalker struct {
	p    *Package
	ff   *fnFacts
	held map[string]bool
}

func (w *lockWalker) heldNow() (bool, string) {
	if w.ff.byName {
		return true, "the caller's mutex (*Locked convention)"
	}
	for k := range w.held {
		return true, k
	}
	return false, ""
}

func (w *lockWalker) add(pos token.Pos, what string) {
	held, lock := w.heldNow()
	w.ff.blocks = append(w.ff.blocks, blockOp{pos: pos, what: what, held: held, lock: lock})
}

func (w *lockWalker) block(b *ast.BlockStmt) {
	for _, s := range b.List {
		w.stmt(s)
	}
}

func (w *lockWalker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.block(st)
	case *ast.ExprStmt:
		w.expr(st.X)
	case *ast.SendStmt:
		if held, _ := w.heldNow(); held {
			w.add(st.Arrow, "channel send")
		}
		w.expr(st.Chan)
		w.expr(st.Value)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.expr(e)
		}
		for _, e := range st.Lhs {
			w.expr(e)
		}
	case *ast.IfStmt:
		w.stmt(st.Init)
		w.expr(st.Cond)
		w.block(st.Body)
		w.stmt(st.Else)
	case *ast.ForStmt:
		w.stmt(st.Init)
		if st.Cond != nil {
			w.expr(st.Cond)
		}
		w.block(st.Body)
		w.stmt(st.Post)
	case *ast.RangeStmt:
		if tv, ok := w.p.Info.Types[st.X]; ok && isChan(tv.Type) {
			if held, _ := w.heldNow(); held {
				w.add(st.For, "range over channel")
			}
		}
		w.expr(st.X)
		w.block(st.Body)
	case *ast.SwitchStmt:
		w.stmt(st.Init)
		if st.Tag != nil {
			w.expr(st.Tag)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.expr(e)
			}
			for _, bs := range cc.Body {
				w.stmt(bs)
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init)
		w.stmt(st.Assign)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, bs := range cc.Body {
				w.stmt(bs)
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			if held, _ := w.heldNow(); held {
				w.add(st.Select, "select without default")
			}
		}
		// Comm statements are the select's own (possibly non-blocking)
		// channel operations; only the clause bodies are scanned.
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				for _, bs := range cc.Body {
					w.stmt(bs)
				}
			}
		}
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's locks; only
		// argument evaluation happens here. The call is also not recorded
		// as a same-package call site for lock propagation.
		for _, a := range st.Call.Args {
			w.expr(a)
		}
	case *ast.DeferStmt:
		// Deferred calls run at return time, where lock state is governed
		// by defer ordering; skipped to stay conservative (the deferred
		// x.Unlock() itself is handled in expr/call classification).
		if w.isUnlock(st.Call) {
			// defer x.Unlock(): the lock is held until function return —
			// keep it in the held set for the rest of the scan.
			return
		}
		for _, a := range st.Call.Args {
			w.expr(a)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	case *ast.IncDecStmt:
		w.expr(st.X)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

func (w *lockWalker) expr(e ast.Expr) {
	switch ex := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(ex)
	case *ast.UnaryExpr:
		if ex.Op == token.ARROW {
			if held, _ := w.heldNow(); held {
				w.add(ex.OpPos, "channel receive")
			}
		}
		w.expr(ex.X)
	case *ast.BinaryExpr:
		w.expr(ex.X)
		w.expr(ex.Y)
	case *ast.ParenExpr:
		w.expr(ex.X)
	case *ast.SelectorExpr:
		w.expr(ex.X)
	case *ast.IndexExpr:
		w.expr(ex.X)
		w.expr(ex.Index)
	case *ast.SliceExpr:
		w.expr(ex.X)
		w.expr(ex.Low)
		w.expr(ex.High)
		w.expr(ex.Max)
	case *ast.StarExpr:
		w.expr(ex.X)
	case *ast.TypeAssertExpr:
		w.expr(ex.X)
	case *ast.CompositeLit:
		for _, el := range ex.Elts {
			w.expr(el)
		}
	case *ast.KeyValueExpr:
		w.expr(ex.Key)
		w.expr(ex.Value)
	case *ast.FuncLit:
		// Not executed here; scanned only when immediately invoked (see
		// call).
	}
}

// call classifies one call expression: lock transition, blocking
// operation, same-package call site, or plain recursion into arguments.
func (w *lockWalker) call(call *ast.CallExpr) {
	// Immediately-invoked function literal: runs synchronously under the
	// current lock state.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, a := range call.Args {
			w.expr(a)
		}
		w.block(lit.Body)
		return
	}
	for _, a := range call.Args {
		w.expr(a)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X)
	}

	// Record the lock state at this site for the call-graph propagation
	// pass — including sites calleeOf cannot resolve (function values); the
	// graph may resolve them through its same-package value bindings.
	held, _ := w.heldNow()
	w.ff.heldAt[call] = held

	fn := calleeOf(w.p.Info, call)
	if fn == nil {
		return
	}
	if w.lockTransition(call, fn) {
		return
	}
	// The operand of a method call is what a promoted method was selected
	// through: core's Binding and G2G take their surface from an embedded
	// engine, and the finding names the type the caller holds.
	var through types.Type
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := w.p.Info.Selections[sel]; s != nil {
			through = s.Recv()
		}
	}
	if what := blockingCallee(fn, through); what != "" {
		w.add(call.Pos(), what)
	}
}

// lockTransition updates the held set for x.Lock()/x.Unlock() calls on
// sync mutexes and reports whether the call was one.
func (w *lockWalker) lockTransition(call *ast.CallExpr, fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	key := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		w.held[key] = true
		return true
	case "Unlock", "RUnlock":
		delete(w.held, key)
		return true
	case "TryLock", "TryRLock":
		return true
	}
	return false
}

// isUnlock reports whether a deferred call is x.Unlock()/x.RUnlock().
func (w *lockWalker) isUnlock(call *ast.CallExpr) bool {
	fn := calleeOf(w.p.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	return fn.Name() == "Unlock" || fn.Name() == "RUnlock"
}

// blockingCallee classifies callees that block the calling goroutine.
// through is the type of the operand fn was selected on, when it is a method
// called as x.fn().
func blockingCallee(fn *types.Func, through types.Type) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	switch pkg {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		if fn.Name() == "Wait" {
			// sync.Cond.Wait and sync.WaitGroup.Wait both park the caller.
			if rt := recvTypeOf(fn); rt != nil {
				return "sync." + namedOrigin(rt).Obj().Name() + ".Wait"
			}
			return "sync wait"
		}
	case "net":
		return "net." + fn.Name() + " (network I/O)"
	}
	if pull := batchPull(fn); pull != "" {
		return pull + " (parks until an item arrives or its source closes)"
	}
	rt := recvTypeOf(fn)
	if rt == nil {
		return ""
	}
	rpkg := pkgPathOf(rt)
	if hasPathSuffix(rpkg, "internal/transport") && (fn.Name() == "Send" || fn.Name() == "SendFrame") {
		return "transport send (network I/O)"
	}
	if hasPathSuffix(rpkg, "internal/gcs") {
		n := namedOrigin(rt).Obj().Name()
		switch {
		case n == "Group" && (fn.Name() == "Multicast" || fn.Name() == "Leave"):
			return "gcs.Group." + fn.Name() + " (blocks on view change/teardown)"
		case n == "Node" && (fn.Name() == "Join" || fn.Name() == "Close"):
			return "gcs.Node." + fn.Name() + " (blocks on membership/teardown)"
		}
	}
	if hasPathSuffix(rpkg, "internal/core") {
		if namedOrigin(through) != nil {
			rt = through
		}
		n := namedOrigin(rt).Obj().Name()
		switch {
		case n == "Call" && fn.Name() == "Await":
			return "core.Call.Await (parks until the future completes)"
		case n == "Binding" || n == "Proxy" || n == "G2G":
			switch fn.Name() {
			case "Call", "Invoke", "InvokeCall":
				return "core." + n + "." + fn.Name() + " (blocks until replies arrive)"
			case "Read":
				return "core." + n + ".Read (blocks until a replica answers)"
			case "InvokeAsync":
				// The async launch still blocks when the outstanding-call
				// window is full (backpressure by design).
				return "core." + n + ".InvokeAsync (blocks on a full call window)"
			}
		}
	}
	return ""
}

// batchPull names fn when it is one of the blocking batch pulls every
// product receive loop is built on — queue.FIFO.PopBatch and an endpoint's
// Recv (or the transport.Recv helper) — "" otherwise.
// Each parks its caller until an item arrives and reports ok=false once
// its source is closed, which is the loop's stop signal (see goorphan).
func batchPull(fn *types.Func) string {
	rt := recvTypeOf(fn)
	if rt == nil {
		if fn.Pkg() != nil && hasPathSuffix(fn.Pkg().Path(), "internal/transport") && fn.Name() == "Recv" {
			return "transport.Recv"
		}
		return ""
	}
	rpkg := pkgPathOf(rt)
	switch {
	case hasPathSuffix(rpkg, "internal/queue") && fn.Name() == "PopBatch":
		return "queue.FIFO.PopBatch"
	case hasPathSuffix(rpkg, "internal/transport") && fn.Name() == "Recv":
		return "transport Recv"
	}
	return ""
}
