package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture loader is shared across tests: the source importer
// type-checks the standard library once per process, which dominates the
// cost of every load.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loaderVal, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderVal
}

// A want is one expected diagnostic, parsed from a fixture comment of the
// form `// want <rule> "<substring>"` (several pairs may share a comment;
// a /* want … */ comment can share a line with a //lint:ok directive).
// The expectation is anchored to the comment's line.
type want struct {
	rule    string
	substr  string
	matched bool
}

var wantRE = regexp.MustCompile(`([a-z]+) "([^"]*)"`)

// parseWants collects the expectations of every fixture file, keyed by
// "basename:line".
func parseWants(p *Package) map[string][]*want {
	wants := make(map[string][]*want)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"), "*/")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
					wants[key] = append(wants[key], &want{rule: m[1], substr: m[2]})
				}
			}
		}
	}
	return wants
}

// runFixture checks one analyzer against its golden fixture package: every
// `// want` expectation must be produced at its line, and nothing else may
// be reported.
func runFixture(t *testing.T, name string, a *Analyzer) { runFixtureWith(t, name, Check, a) }

// runFixtureWith is runFixture through check (CheckModule where a fixture
// pins stale-directive reports too).
func runFixtureWith(t *testing.T, name string, check func([]*Package, []*Analyzer) []Diagnostic, a *Analyzer) {
	t.Helper()
	ld := fixtureLoader(t)
	pkg, err := ld.LoadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	wants := parseWants(pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want expectations", name)
	}
	for _, d := range check([]*Package{pkg}, []*Analyzer{a}) {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.rule == d.Rule && strings.Contains(d.Msg, w.substr) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: missing diagnostic [%s] containing %q", key, w.rule, w.substr)
			}
		}
	}
}

func TestWireSym(t *testing.T)    { runFixture(t, "wiresym", WireSym()) }
func TestWirePool(t *testing.T)   { runFixture(t, "wirepool", WirePool()) }
func TestLockBlock(t *testing.T)  { runFixture(t, "lockblock", LockBlock()) }
func TestDetClock(t *testing.T)   { runFixture(t, "detclock", DetClock()) }
func TestTimerWheel(t *testing.T) { runFixture(t, "timerwheel", TimerWheel()) }
func TestGoOrphan(t *testing.T)   { runFixture(t, "goorphan", GoOrphan()) }
func TestErrDrop(t *testing.T)    { runFixture(t, "errdrop", ErrDrop()) }

// TestUnlinked runs the unlinked rule over its fixture with the linker's
// symbols injected, spelt as -dumpdep spells them: a closure, generic
// instantiations and a method value each mark the function they come
// from, and a function's data marks nothing. An unlinked function and
// method are reported, an escaped one is not, an escape on a linked
// function is stale, and a bodiless declaration is skipped. A package no
// binary links is reported, unless it is a test helper.
func TestUnlinked(t *testing.T) {
	const pkg = "newtop/internal/lint/testdata/unlinked"
	syms := []string{
		"main.main", pkg + ".Linked",
		pkg + ".Linked", pkg + ".Linked.func1",
		pkg + ".Linked.func1", pkg + ".Linked.func1.argliveinfo",
		"main.main", pkg + ".(*Box[go.shape.int]).Get",
		"main.main", pkg + ".(*Box[go.shape.struct { X []int }]).Put-fm",
		"main.main", pkg + ".Stale",
		// Identical data is kept once, under one function's name: it
		// marks no function.
		"main.main", pkg + ".Dead.opendefer",
		"main.main", pkg + ".(*Box[go.shape.int]).Drop.stkobj",
		"main.main", "type:" + pkg + ".Box[int]",
	}
	source := func(string) ([]string, error) { return syms, nil }
	helpers := func(string) ([]string, error) { return []string{pkg + "/helper"}, nil }
	a := unlinkedFrom(source, helpers)
	runFixtureWith(t, "unlinked", CheckModule, a)
	// A package no binary links is reported once, unless it is a test
	// helper.
	runFixtureWith(t, filepath.Join("unlinked", "unreached"), CheckModule, a)
	helper, err := fixtureLoader(t).LoadDir(filepath.Join("testdata", "unlinked", "helper"))
	if err != nil {
		t.Fatalf("loading fixture unlinked/helper: %v", err)
	}
	if diags := CheckModule([]*Package{helper}, []*Analyzer{a}); len(diags) != 0 {
		t.Fatalf("a test helper was reported: %v", diags)
	}
}

// TestDirectiveMalformed checks that broken //lint:ok comments are
// reported even when no analyzer runs: a directive that parses wrong, or
// names a rule the suite does not have, silently suppresses nothing, which
// must be loud.
func TestDirectiveMalformed(t *testing.T) {
	ld := fixtureLoader(t)
	pkg, err := ld.LoadDir(filepath.Join("testdata", "directive"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	for _, check := range []func([]*Package, []*Analyzer) []Diagnostic{Check, CheckModule} {
		diags := check([]*Package{pkg}, nil)
		var malformed, unknown int
		for _, d := range diags {
			switch {
			case d.Rule != "directive":
				t.Errorf("unexpected diagnostic: %s", d)
			case strings.Contains(d.Msg, "malformed"):
				malformed++
			case strings.Contains(d.Msg, `unknown rule "retired"`):
				unknown++
			default:
				t.Errorf("unexpected diagnostic: %s", d)
			}
		}
		if malformed != 2 || unknown != 1 {
			t.Fatalf("got %d malformed and %d unknown-rule findings, want 2 and 1: %v", malformed, unknown, diags)
		}
	}
}

// TestAnalyzersNamed checks rule-subset selection and its error path.
func TestAnalyzersNamed(t *testing.T) {
	all, err := AnalyzersNamed("")
	if err != nil || len(all) != 8 {
		t.Fatalf("AnalyzersNamed(\"\") = %d analyzers, err %v; want 8, nil", len(all), err)
	}
	two, err := AnalyzersNamed("wiresym,errdrop")
	if err != nil || len(two) != 2 {
		t.Fatalf("AnalyzersNamed(subset) = %d analyzers, err %v; want 2, nil", len(two), err)
	}
	if _, err := AnalyzersNamed("nosuchrule"); err == nil {
		t.Fatal("AnalyzersNamed(unknown) succeeded, want error")
	}
}

// TestExpand checks module pattern expansion against the real module tree.
func TestExpand(t *testing.T) {
	ld := fixtureLoader(t)
	paths, err := ld.Expand([]string{"./..."})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		seen[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("Expand(./...) includes testdata package %s", p)
		}
	}
	for _, need := range []string{"newtop/internal/lint", "newtop/internal/gcs", "newtop/internal/wire"} {
		if !seen[need] {
			t.Errorf("Expand(./...) missing %s (got %d packages)", need, len(paths))
		}
	}
}

// Check runs every analyzer over every package, applies //lint:ok
// suppression, and returns the surviving diagnostics in position order.
// Scoping via Analyzer.Applies and stale-directive detection are
// CheckModule's concern (cmd/newtop-lint goes through it; fixture tests
// call Check and bypass both).
func Check(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return check(pkgs, analyzers, false, false)
}

// LoadDir type-checks the package in an explicit directory (lint fixture
// packages under testdata, which pattern expansion deliberately skips).
// The package is registered under a synthetic module-internal import path
// so analyzers see ordinary-looking paths.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.Root)
	}
	path := l.Module + "/" + filepath.ToSlash(rel)
	if e, ok := l.pkgs[path]; ok {
		return e.pkg, e.err
	}
	e := &loadEntry{}
	e.pkg, e.tpkg, e.err = l.loadDir(abs, path)
	l.pkgs[path] = e
	return e.pkg, e.err
}
