package lint

import (
	"go/ast"
	"go/types"
)

// This file builds the interprocedural call graph lockblock walks. The
// graph is deliberately static: an edge exists only when the callee is
// resolvable at type-check time — a named function, a method called on a
// concrete receiver, or a function value whose binding is unambiguous
// within its package. Interface dispatch and escaping function values
// stay *dynamic* edges (a nil Callee), which an analyzer must treat as
// unknown rather than as leaves.

// CallEdge is one call expression inside a function body.
type CallEdge struct {
	Call   *ast.CallExpr
	Callee *types.Func // nil for dynamic calls (interface dispatch, unknown function values)
	Go     bool        // the call is the operand of a go statement
	Defer  bool        // the call is the operand of a defer statement
	InLit  bool        // the call sits inside a function literal that is not invoked on the spot
}

// CallNode is one declared function with a body.
type CallNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Out  []CallEdge // call sites in body order
}

// CallGraph indexes every function declared in a set of packages.
type CallGraph struct {
	order []*CallNode // deterministic: package load order, then file/decl order
	// fnVals maps package-scoped variables that are bound to exactly one
	// statically known function across the whole package ("f := helper"
	// followed by "f()") — the same-package function-value resolution the
	// static edges extend through.
	fnVals map[*types.Var]*types.Func
}

// BuildCallGraph walks every function declaration in pkgs and records its
// resolved static call sites. Function literals are attributed to their
// enclosing declaration: code inside a literal still runs as a consequence
// of the enclosing function, so its calls are edges (marked InLit unless
// the literal is invoked immediately).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{fnVals: make(map[*types.Var]*types.Func)}
	for _, p := range pkgs {
		cg.collectFnVals(p)
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &CallNode{Fn: obj, Decl: fd}
				cg.walkBody(p, node, fd.Body, false)
				cg.order = append(cg.order, node)
			}
		}
	}
	return cg
}

// collectFnVals scans one package for variables bound to statically known
// functions. A variable assigned two different functions (or anything not
// a plain function identifier) is ambiguous and resolves to nothing.
func (cg *CallGraph) collectFnVals(p *Package) {
	ambiguous := make(map[*types.Var]bool)
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		v, ok := p.Info.Defs[id].(*types.Var)
		if !ok {
			v, ok = p.Info.Uses[id].(*types.Var)
			if !ok {
				return
			}
		}
		if _, isSig := v.Type().Underlying().(*types.Signature); !isSig {
			return
		}
		fn := funcValueOf(p.Info, rhs)
		if fn == nil {
			ambiguous[v] = true
			return
		}
		if prev, ok := cg.fnVals[v]; ok && prev != fn {
			ambiguous[v] = true
			return
		}
		cg.fnVals[v] = fn
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for i := range st.Lhs {
						bind(st.Lhs[i], st.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) == len(st.Values) {
					for i := range st.Names {
						bind(st.Names[i], st.Values[i])
					}
				}
			}
			return true
		})
	}
	for v := range ambiguous {
		delete(cg.fnVals, v)
	}
}

// funcValueOf resolves an expression to the function it denotes, when that
// is a plain (possibly package-qualified) function identifier.
func funcValueOf(info *types.Info, e ast.Expr) *types.Func {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[x].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		// pkg.Fn as a value; method values (x.M) are excluded — their
		// receiver binding makes them dynamic for our purposes.
		if _, isSel := info.Selections[x]; isSel {
			return nil
		}
		if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// walkBody records every call expression under b as an edge of node.
func (cg *CallGraph) walkBody(p *Package, node *CallNode, b ast.Node, inLit bool) {
	ast.Inspect(b, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			cg.addEdge(p, node, st.Call, CallEdge{Go: true, InLit: inLit})
			cg.walkCallParts(p, node, st.Call, inLit)
			return false
		case *ast.DeferStmt:
			cg.addEdge(p, node, st.Call, CallEdge{Defer: true, InLit: inLit})
			cg.walkCallParts(p, node, st.Call, inLit)
			return false
		case *ast.CallExpr:
			cg.addEdge(p, node, st, CallEdge{InLit: inLit})
			cg.walkCallParts(p, node, st, inLit)
			return false
		case *ast.FuncLit:
			// Reached only when the literal is not the operand of a call we
			// already unwrapped: its body belongs to the enclosing function
			// but runs at some later point.
			cg.walkBody(p, node, st.Body, true)
			return false
		}
		return true
	})
}

// walkCallParts visits the operands of a call that addEdge consumed: the
// arguments, the function expression (receivers, chained calls), and — for
// an immediately invoked function literal — the literal body at the
// caller's literal depth.
func (cg *CallGraph) walkCallParts(p *Package, node *CallNode, call *ast.CallExpr, inLit bool) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		cg.walkBody(p, node, lit.Body, inLit)
	} else {
		cg.walkBody(p, node, call.Fun, inLit)
	}
	for _, a := range call.Args {
		cg.walkBody(p, node, a, inLit)
	}
}

// addEdge resolves one call and appends the edge. Type conversions,
// builtins and immediately invoked function literals (whose bodies are
// walked inline) are not calls in the call-graph sense and record no edge.
func (cg *CallGraph) addEdge(p *Package, node *CallNode, call *ast.CallExpr, proto CallEdge) {
	if tv, ok := p.Info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return
	}
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return
	}
	proto.Call = call
	proto.Callee = cg.ResolveCall(p, call)
	node.Out = append(node.Out, proto)
}

// ResolveCall returns the static callee of a call expression: a named
// function or concrete method via calleeOf, or a same-package function
// value with an unambiguous binding. Nil means the call is dynamic —
// including interface dispatch, whose method object has no body to walk.
func (cg *CallGraph) ResolveCall(p *Package, call *ast.CallExpr) *types.Func {
	if fn := calleeOf(p.Info, call); fn != nil {
		if rt := recvTypeOf(fn); rt != nil {
			if _, iface := rt.Underlying().(*types.Interface); iface {
				return nil
			}
		}
		return fn
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if v, ok := p.Info.Uses[id].(*types.Var); ok {
			return cg.fnVals[v]
		}
	}
	return nil
}

// Nodes returns every node in deterministic order.
func (cg *CallGraph) Nodes() []*CallNode { return cg.order }
