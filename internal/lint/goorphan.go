package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoOrphan flags `go` statements that spawn an unstoppable goroutine: one
// whose body (followed through same-package static calls) contains an
// unconditional `for` loop but no stop signal — no channel receive or
// select, no range over a channel, no context.Context, no sync.WaitGroup
// accounting, and no batch pull (queue.FIFO.PopBatch, Endpoint.Recv)
// whose ok result ends the loop. Every pump in this
// codebase (transport receive loops, gcs tick loops, ORB collectors) must
// be reapable by Stop/Close, or netsim worlds and long-running nodes leak
// goroutines; the leakcheck test helper is the runtime twin of this rule.
//
// Goroutines that run bounded work and exit are fine without a stop
// signal; the rule only fires when an infinite loop is reachable.
func GoOrphan() *Analyzer {
	return &Analyzer{
		Name:    "goorphan",
		Doc:     "every spawned goroutine with an unbounded loop needs a stop signal",
		Applies: internalOnly,
		Run:     runGoOrphan,
	}
}

func runGoOrphan(p *Package) []Diagnostic {
	// Index same-package function declarations for call following.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}

	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			switch fun := ast.Unparen(gs.Call.Fun).(type) {
			case *ast.FuncLit:
				body = fun.Body
			default:
				if fn := calleeOf(p.Info, gs.Call); fn != nil {
					if fd := decls[fn]; fd != nil {
						body = fd.Body
					}
				}
			}
			if body == nil {
				return true // dynamic or cross-package target: not analyzable
			}
			g := &orphanScan{p: p, decls: decls, seen: map[*ast.BlockStmt]bool{}, pullOK: map[types.Object]bool{}}
			g.scan(body)
			if g.infiniteLoop && !g.stopSignal {
				diags = append(diags, Diagnostic{
					Rule: "goorphan",
					Pos:  p.Fset.Position(gs.Pos()),
					Msg:  "goroutine loops forever with no stop signal (no channel receive/select, context, or WaitGroup in reach); Stop/Close cannot reap it",
				})
			}
			return true
		})
	}
	return diags
}

// orphanScan accumulates loop/stop evidence over a goroutine body and the
// same-package functions it calls.
type orphanScan struct {
	p     *Package
	decls map[*types.Func]*ast.FuncDecl
	seen  map[*ast.BlockStmt]bool

	infiniteLoop bool
	stopSignal   bool
	// pullOK holds the ok results of batch pulls seen so far: closing the
	// pull's source turns ok false, so a loop that leaves on !ok is
	// reapable by Close.
	pullOK map[types.Object]bool
}

func (g *orphanScan) scan(body *ast.BlockStmt) {
	if g.seen[body] {
		return
	}
	g.seen[body] = true
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.ForStmt:
			if node.Cond == nil {
				g.infiniteLoop = true
			}
		case *ast.SelectStmt:
			g.stopSignal = true
		case *ast.AssignStmt:
			g.notePull(node)
		case *ast.IfStmt:
			if init, ok := node.Init.(*ast.AssignStmt); ok {
				g.notePull(init)
			}
			if g.leavesOnPullClosed(node) {
				g.stopSignal = true
			}
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				g.stopSignal = true
			}
		case *ast.RangeStmt:
			if tv, ok := g.p.Info.Types[node.X]; ok && isChan(tv.Type) {
				g.stopSignal = true
			}
		case *ast.Ident:
			if obj := g.p.Info.Uses[node]; obj != nil {
				if isNamedType(obj.Type(), "context", "Context") {
					g.stopSignal = true
				}
			}
		case *ast.CallExpr:
			fn := calleeOf(g.p.Info, node)
			if fn == nil {
				return true
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				if rt := recvTypeOf(fn); rt != nil && isNamedType(rt, "sync", "WaitGroup") {
					g.stopSignal = true
				}
			}
			if fn.Pkg() == g.p.Types {
				if fd := g.decls[fn]; fd != nil {
					g.scan(fd.Body)
				}
			}
		}
		return true
	})
}

// notePull records the ok variable of `n, ok := <batch pull>(...)`.
func (g *orphanScan) notePull(as *ast.AssignStmt) {
	if len(as.Lhs) != 2 || len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	if fn := calleeOf(g.p.Info, call); fn == nil || batchPull(fn) == "" {
		return
	}
	id, ok := as.Lhs[1].(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := g.p.Info.Defs[id]
	if obj == nil {
		obj = g.p.Info.Uses[id]
	}
	if obj != nil {
		g.pullOK[obj] = true
	}
}

// leavesOnPullClosed reports whether st is `if !ok { ... return/break }`
// for the ok of a batch pull.
func (g *orphanScan) leavesOnPullClosed(st *ast.IfStmt) bool {
	not, ok := ast.Unparen(st.Cond).(*ast.UnaryExpr)
	if !ok || not.Op != token.NOT {
		return false
	}
	id, ok := ast.Unparen(not.X).(*ast.Ident)
	if !ok || !g.pullOK[g.p.Info.Uses[id]] {
		return false
	}
	leaves := false
	ast.Inspect(st.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ReturnStmt:
			leaves = true
		case *ast.BranchStmt:
			if s.Tok == token.BREAK {
				leaves = true
			}
		case *ast.FuncLit:
			return false
		}
		return !leaves
	})
	return leaves
}
