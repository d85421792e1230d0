package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ErrDrop flags discarded error returns on the send paths: calls to
// transport.Endpoint.Send, transport.FrameSender.SendFrame and
// gcs.Group.Multicast/MulticastAsSequencer whose error result is
// thrown away, either by a bare expression statement or by assigning
// every result to the blank identifier. The
// protocol tolerates lost messages (the resend machinery recovers), so
// many of these drops are deliberate — but each one must say so with a
// //lint:ok errdrop annotation, because a *new* silent drop is exactly
// how a "replies sometimes vanish" bug enters a reliability layer.
func ErrDrop() *Analyzer {
	return &Analyzer{
		Name:    "errdrop",
		Doc:     "send-path errors may only be dropped with an annotated reason",
		Applies: pathIn("internal/gcs", "internal/core", "internal/transport", "internal/orb"),
		Run:     runErrDrop,
	}
}

func runErrDrop(p *Package) []Diagnostic {
	var diags []Diagnostic
	flag := func(call *ast.CallExpr, how string) {
		fn := calleeOf(p.Info, call)
		name := sendPathCallee(fn)
		if name == "" {
			return
		}
		diags = append(diags, Diagnostic{
			Rule: "errdrop",
			Pos:  p.Fset.Position(call.Pos()),
			Msg:  fmt.Sprintf("error from %s %s; handle it or annotate the deliberate best-effort drop", name, how),
		})
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
					flag(call, "ignored")
				}
			case *ast.AssignStmt:
				// `_ = x.Send(...)` (or `_, _ = ...`): every destination
				// blank and a single call on the right.
				if len(st.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, lhs := range st.Lhs {
					if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
						return true
					}
				}
				flag(call, "discarded with _")
			case *ast.GoStmt:
				flag(st.Call, "lost by go statement")
			case *ast.DeferStmt:
				flag(st.Call, "lost by defer")
			}
			return true
		})
	}
	return diags
}

// sendPathCallee names fn when it is a send-path function returning an
// error, "" otherwise.
func sendPathCallee(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return ""
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !isErrorType(last) {
		return ""
	}
	rt := recvTypeOf(fn)
	if rt == nil {
		return ""
	}
	rpkg := pkgPathOf(rt)
	rname := ""
	if n := namedOrigin(rt); n != nil {
		rname = n.Obj().Name()
	}
	switch {
	case hasPathSuffix(rpkg, "internal/transport") && (fn.Name() == "Send" || fn.Name() == "SendFrame"):
		return "(" + rname + ")." + fn.Name()
	case hasPathSuffix(rpkg, "internal/gcs") && rname == "Group" && (fn.Name() == "Multicast" || fn.Name() == "MulticastAsSequencer"):
		return "(gcs.Group)." + fn.Name()
	}
	return ""
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj() != nil && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}
