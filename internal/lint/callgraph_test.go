package lint

import (
	"go/ast"
	"strings"
	"testing"
)

// callgraphDebug is a test-only analyzer that reports, at every call
// edge, the builder's static resolution and edge flags — the golden
// fixture pins the call graph's semantics with want comments.
func callgraphDebug() *Analyzer {
	return &Analyzer{
		Name: "callgraph",
		Doc:  "test-only: report every call edge's static resolution",
		Run: func(p *Package) []Diagnostic {
			var out []Diagnostic
			for _, n := range BuildCallGraph([]*Package{p}).Nodes() {
				for _, e := range n.Out {
					msg := "dynamic"
					if e.Callee != nil {
						msg = "resolves to " + e.Callee.Name()
					}
					switch {
					case e.Go:
						msg += " (go)"
					case e.Defer:
						msg += " (defer)"
					case e.InLit:
						msg += " (in literal)"
					}
					out = append(out, Diagnostic{
						Rule: "callgraph",
						Pos:  p.Fset.Position(e.Call.Pos()),
						Msg:  msg,
					})
				}
			}
			return out
		},
	}
}

func TestCallGraph(t *testing.T) { runFixture(t, "callgraph", callgraphDebug()) }

// TestStaleSuppression checks CheckModule's escape-hatch inventory: a
// //lint:ok directive whose rule ran but matched nothing is reported.
func TestStaleSuppression(t *testing.T) {
	ld := fixtureLoader(t)
	pkg, err := ld.LoadDir("testdata/staleok")
	if err != nil {
		t.Fatal(err)
	}
	mock := &Analyzer{
		Name: "mock",
		Doc:  "test-only: flags the declaration of Covered",
		Run: func(p *Package) []Diagnostic {
			var out []Diagnostic
			for _, f := range p.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "Covered" {
						out = append(out, Diagnostic{Rule: "mock", Pos: p.Fset.Position(fd.Pos()), Msg: "mock finding"})
					}
				}
			}
			return out
		},
	}
	diags := CheckModule([]*Package{pkg}, []*Analyzer{mock})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the stale-directive report: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Rule != "directive" || !strings.Contains(d.Msg, "stale //lint:ok mock") {
		t.Errorf("unexpected diagnostic: %s", d)
	}

	// The same run through Check (fixture semantics) performs no stale
	// detection and the covered finding stays suppressed: no output.
	if diags := Check([]*Package{pkg}, []*Analyzer{mock}); len(diags) != 0 {
		t.Errorf("Check reported %v, want none", diags)
	}
}
