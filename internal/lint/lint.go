// Package lint is newtop's protocol-aware static analysis engine. The Go
// compiler checks types; it cannot check the invariants the NewTop
// correctness story actually rests on — wire envelopes that encode and
// decode symmetrically, event-loop code that never blocks while a group
// mutex is held, protocol decisions that stay deterministic (no wall
// clock, no math/rand) so netsim runs replay, goroutines that have a stop
// signal, and send-path errors that are dropped only on purpose. This
// package turns each of those invariants into an analyzer that CI runs
// over the whole module (see cmd/newtop-lint).
//
// The engine is stdlib-only: go/parser + go/types + go/importer, no
// golang.org/x/tools dependency. Packages are loaded from source (see
// load.go), analyzers receive a fully type-checked *Package, and
// deliberate violations are suppressed inline with
//
//	//lint:ok <rule> <reason>
//
// on (or immediately above) the offending line. A directive must name the
// rule and give a non-empty reason; a malformed directive is itself a
// diagnostic, so the escape hatch cannot rot silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, anchored to a source position.
type Diagnostic struct {
	Rule string
	Pos  token.Position
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Package is one type-checked package handed to analyzers.
type Package struct {
	Path  string // import path ("newtop/internal/gcs")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one protocol-invariant check, run on one package at a time.
type Analyzer struct {
	Name string
	Doc  string
	// Applies gates which module packages the analyzer runs on when
	// driving from cmd/newtop-lint; Check itself runs every analyzer it is
	// given (fixture tests rely on that).
	Applies func(importPath string) bool
	Run     func(p *Package) []Diagnostic
}

// internalOnly scopes an analyzer to the module's internal packages (the
// protocol stack); cmd and examples are demo surface.
func internalOnly(path string) bool { return strings.Contains(path, "/internal/") }

// pathIn reports whether path is one of the named module packages.
func pathIn(paths ...string) func(string) bool {
	return func(p string) bool {
		for _, q := range paths {
			if p == q || strings.HasSuffix(p, q) {
				return true
			}
		}
		return false
	}
}

// Analyzers returns the full newtop-lint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WireSym(),
		WirePool(),
		LockBlock(),
		DetClock(),
		TimerWheel(),
		GoOrphan(),
		ErrDrop(),
	}
}

// AnalyzersNamed resolves a comma-separated rule list ("wiresym,errdrop").
func AnalyzersNamed(names string) ([]*Analyzer, error) {
	all := Analyzers()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q (have %s)", n, ruleNames(all))
		}
		out = append(out, a)
	}
	return out, nil
}

func ruleNames(as []*Analyzer) string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// directive is one parsed //lint:ok annotation.
type directive struct {
	rule   string
	reason string
	file   string
	line   int
	// own reports a directive on a line of its own (it then covers the
	// next line); inline directives cover their own line.
	own bool
}

const directivePrefix = "//lint:ok"

// collectDirectives parses every //lint:ok comment in the package and
// reports malformed ones as diagnostics under the "directive" rule.
func collectDirectives(p *Package) ([]directive, []Diagnostic) {
	var ds []directive
	var diags []Diagnostic
	for _, f := range p.Files {
		// A comment group is "own-line" when no code shares its line.
		codeLines := make(map[int]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case nil, *ast.Comment, *ast.CommentGroup, *ast.File:
				return true
			default:
				codeLines[p.Fset.Position(n.Pos()).Line] = true
				return true
			}
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix))
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Rule: "directive",
						Pos:  pos,
						Msg:  "malformed //lint:ok directive: want \"//lint:ok <rule> <reason>\"",
					})
					continue
				}
				ds = append(ds, directive{
					rule:   fields[0],
					reason: strings.Join(fields[1:], " "),
					file:   pos.Filename,
					line:   pos.Line,
					own:    !codeLines[pos.Line],
				})
			}
		}
	}
	return ds, diags
}

// suppressor holds every //lint:ok directive collected from the checked
// packages and records which of them actually suppressed something, so a
// stale directive — one whose rule ran but matched no finding — can be
// reported instead of rotting silently.
type suppressor struct {
	ds []*trackedDirective
}

type trackedDirective struct {
	directive
	pkgPath string
	used    bool
}

// newSuppressor collects the packages' directives. One that names a rule
// neither in the suite nor among the analyzers being run is reported
// whatever rules are selected: a directive left behind by a deleted or
// misspelt rule suppresses nothing, and no later run would call it stale.
func newSuppressor(pkgs []*Package, analyzers []*Analyzer) (*suppressor, []Diagnostic) {
	known := make(map[string]bool)
	for _, a := range append(Analyzers(), analyzers...) {
		known[a.Name] = true
	}
	sup := &suppressor{}
	var bad []Diagnostic
	for _, p := range pkgs {
		ds, diags := collectDirectives(p)
		bad = append(bad, diags...)
		for _, d := range ds {
			if !known[d.rule] {
				bad = append(bad, Diagnostic{
					Rule: "directive",
					Pos:  token.Position{Filename: d.file, Line: d.line, Column: 1},
					Msg:  fmt.Sprintf("//lint:ok names unknown rule %q (have %s)", d.rule, ruleNames(Analyzers())),
				})
				continue
			}
			sup.ds = append(sup.ds, &trackedDirective{directive: d, pkgPath: p.Path})
		}
	}
	return sup, bad
}

// suppressed reports whether a directive covers (rule, pos): same rule,
// same file, and either inline on the position's line or alone on the line
// immediately above it. A match marks the directive used.
func (s *suppressor) suppressed(rule string, pos token.Position) bool {
	hit := false
	for _, dir := range s.ds {
		if dir.rule != rule || dir.file != pos.Filename {
			continue
		}
		if dir.line == pos.Line || (dir.own && dir.line == pos.Line-1) {
			dir.used = true
			hit = true
		}
	}
	return hit
}

// stale returns one diagnostic per unused directive whose rule actually
// ran on the directive's package in this invocation (ran maps package path
// to the rule names executed there). A directive for a rule that was not
// selected, or that is gated off the package, is not stale — it may be
// doing its job on a fuller run.
func (s *suppressor) stale(ran map[string]map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, dir := range s.ds {
		if dir.used || !ran[dir.pkgPath][dir.rule] {
			continue
		}
		out = append(out, Diagnostic{
			Rule: "directive",
			Pos:  token.Position{Filename: dir.file, Line: dir.line, Column: 1},
			Msg:  fmt.Sprintf("stale //lint:ok %s directive: it suppresses nothing", dir.rule),
		})
	}
	return out
}

// Check runs every analyzer over every package, applies //lint:ok
// suppression, and returns the surviving diagnostics in position order.
// Scoping via Analyzer.Applies and stale-directive detection are
// CheckModule's concern (cmd/newtop-lint goes through it; fixture tests
// call Check and bypass both).
func Check(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return check(pkgs, analyzers, false, false)
}

// CheckModule is the cmd/newtop-lint entry point: Applies gating is
// honoured, and //lint:ok directives that suppressed nothing are reported.
func CheckModule(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return check(pkgs, analyzers, true, true)
}

func check(pkgs []*Package, analyzers []*Analyzer, gate, staleCheck bool) []Diagnostic {
	sup, out := newSuppressor(pkgs, analyzers)
	ran := make(map[string]map[string]bool, len(pkgs))
	for _, p := range pkgs {
		ran[p.Path] = make(map[string]bool)
		for _, a := range analyzers {
			if gate && a.Applies != nil && !a.Applies(p.Path) {
				continue
			}
			ran[p.Path][a.Name] = true
			for _, d := range a.Run(p) {
				if !sup.suppressed(d.Rule, d.Pos) {
					out = append(out, d)
				}
			}
		}
	}
	if staleCheck {
		out = append(out, sup.stale(ran)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// --- shared type helpers used by several analyzers ---

// namedOrigin unwraps pointers and aliases down to a *types.Named, or nil.
func namedOrigin(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamedType reports whether t (possibly behind pointers) is the named
// type pkgSuffix.name, matching the package by import-path suffix so the
// check works for both "newtop/internal/wire" and fixture re-exports.
func isNamedType(t types.Type, pkgSuffix, name string) bool {
	n := namedOrigin(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && hasPathSuffix(n.Obj().Pkg().Path(), pkgSuffix)
}

// pkgPathOf returns the defining package path of t's named form ("" when
// unnamed or universe).
func pkgPathOf(t types.Type) string {
	n := namedOrigin(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path()
}

// hasPathSuffix matches an import path against a suffix on path-segment
// boundaries ("internal/wire" matches "newtop/internal/wire" but not
// "newtop/internal/rewire").
func hasPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix) ||
		(strings.HasSuffix(path, suffix) && strings.HasSuffix(strings.TrimSuffix(path, suffix), "/"))
}

// calleeOf resolves the called function object of a call expression, or
// nil for dynamic calls (function values, type conversions, builtins).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.IndexExpr: // explicit instantiation: f[T](…)
		if id, ok := fun.X.(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			// Package-qualified call (time.Sleep): the Sel ident resolves
			// directly.
			obj = info.Uses[fun.Sel]
		}
	}
	if fn, ok := obj.(*types.Func); ok {
		// A method of an instantiated generic type resolves to a per-
		// instance object; the declaration the call graph knows is its
		// origin.
		return fn.Origin()
	}
	return nil
}

// recvTypeOf returns the receiver type of a method object, or nil.
func recvTypeOf(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// isChan reports whether t's core type is a channel.
func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
