package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"os/exec"
	"strings"
	"sync"
)

// Unlinked flags every function of an internal package that no binary of
// the module links: code that only its own tests run, so nothing tells
// when it stops being right. The linked set is what the linker keeps when
// it builds every package main of the module (the commands, the examples
// and the benchmark) with inlining off, read from its -dumpdep graph. A
// function a binary must not lose although none calls it — a method an
// interface assertion needs, groundwork a later change builds on, a
// simulator control that tests drive — carries
// //lint:ok unlinked <reason>.
//
// Bodiless declarations (implemented in assembly or pulled in with
// go:linkname) have no code of their own to link and are skipped. A package
// no binary links at all is reported once, unless it is a test helper:
// another package's tests import it, and no non-test file does. Which
// packages are test helpers is read from go list's test imports, files
// this loader never reads.
func Unlinked() *Analyzer { return unlinkedFrom(dumpDeps, testHelpers) }

// unlinkedFrom is Unlinked over a linked-symbol source and a test-helper
// source: each is called once, with the module root; the first returns
// the raw symbol names the linker kept, the second the import paths of the
// test helpers (the fixture test injects both; the suite computes them).
func unlinkedFrom(source, helperSource func(root string) ([]string, error)) *Analyzer {
	var (
		once    sync.Once
		linked  map[string]bool
		helpers map[string]bool
		err     error
	)
	return &Analyzer{
		Name:    "unlinked",
		Doc:     "every internal function is linked by some command, example or benchmark binary",
		Applies: internalOnly,
		Run: func(p *Package) []Diagnostic {
			once.Do(func() {
				var root string
				var syms []string
				var paths []string
				if root, _, err = findModule(p.Dir); err == nil {
					syms, err = source(root)
				}
				if err == nil {
					paths, err = helperSource(root)
				}
				linked = linkedSet(syms)
				helpers = make(map[string]bool, len(paths))
				for _, h := range paths {
					helpers[h] = true
				}
			})
			if err != nil {
				return []Diagnostic{{Rule: "unlinked", Pos: p.Fset.Position(p.Files[0].Package),
					Msg: fmt.Sprintf("cannot compute the linked set: %v", err)}}
			}
			return runUnlinked(p, linked, helpers)
		},
	}
}

func runUnlinked(p *Package, linked, helpers map[string]bool) []Diagnostic {
	if !linked[p.Path] {
		if helpers[p.Path] {
			return nil
		}
		return []Diagnostic{{Rule: "unlinked", Pos: p.Fset.Position(p.Files[0].Package),
			Msg: fmt.Sprintf("package %s: no command, example or benchmark links it, and it is no other package's test helper (give it a user or delete it)", p.Types.Name())}}
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok || linked[funcKey(p.Path, fn)] {
				continue
			}
			diags = append(diags, Diagnostic{
				Rule: "unlinked",
				Pos:  p.Fset.Position(fd.Pos()),
				Msg: fmt.Sprintf("%s: no command, example or benchmark links it (delete it, move it to a test file, or annotate why it stays)",
					funcName(p.Types.Name(), fn)),
			})
		}
	}
	return diags
}

// funcKey names fn the way linkedSet normalises linker symbols:
// "path.Func" or "path.Type.Method", the receiver's pointer and type
// parameters dropped.
func funcKey(pkgPath string, fn *types.Func) string {
	if recv := recvTypeOf(fn); recv != nil {
		if n := namedOrigin(recv); n != nil {
			return pkgPath + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return pkgPath + "." + fn.Name()
}

// funcName is fn as a diagnostic names it: "gcs.decodeMessage",
// "core.(*Proxy).Read".
func funcName(pkgName string, fn *types.Func) string {
	recv := recvTypeOf(fn)
	if recv == nil {
		return pkgName + "." + fn.Name()
	}
	n := namedOrigin(recv)
	if n == nil {
		return pkgName + "." + fn.Name()
	}
	if _, ptr := recv.(*types.Pointer); ptr {
		return fmt.Sprintf("%s.(*%s).%s", pkgName, n.Obj().Name(), fn.Name())
	}
	return fmt.Sprintf("%s.%s.%s", pkgName, n.Obj().Name(), fn.Name())
}

// linkedSet normalises linker symbols to funcKey form. Type arguments and
// the "(*T)" receiver spelling go, and every prefix of a symbol that ends
// before a '.', '-' or '·' counts too, so a closure ("F.func1", "F.func1·f",
// "F.deferwrap1") or a method value ("(*T).M-fm") marks its function. A
// prefix that is a package path marks the package as linked. A function's
// data ("F.stkobj", "F.argliveinfo") marks nothing: the linker keeps one
// copy of identical data under the name of whichever function it met
// first, so "F.opendefer" can be another function's.
func linkedSet(syms []string) map[string]bool {
	set := make(map[string]bool, 2*len(syms))
	for _, s := range syms {
		if funcData(s) {
			continue
		}
		s = stripTypeArgs(s)
		s = strings.NewReplacer("(*", "", ")", "").Replace(s)
		slash := strings.LastIndexByte(s, '/') + 1
		for i := slash; i < len(s); i++ {
			if s[i] == '.' || s[i] == '-' || strings.HasPrefix(s[i:], "·") {
				set[s[:i]] = true
			}
		}
		set[s] = true
	}
	return set
}

// funcData reports whether sym names a function's data rather than code.
func funcData(sym string) bool {
	last := sym[strings.LastIndexByte(sym, '.')+1:]
	switch last {
	case "stkobj", "argliveinfo", "opendefer", "wrapinfo", "args_stackmap":
		return true
	}
	n, ok := strings.CutPrefix(last, "arginfo")
	return ok && n != "" && strings.Trim(n, "0123456789") == ""
}

// stripTypeArgs drops every bracketed type-argument list, nested ones
// included: "p.(*FIFO[p.Event]).Push" → "p.(*FIFO).Push".
func stripTypeArgs(s string) string {
	if !strings.ContainsRune(s, '[') {
		return s
	}
	var b strings.Builder
	depth := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// testHelpers lists the test helpers of the module at root: the packages
// that another package's tests import and no non-test file does.
func testHelpers(root string) ([]string, error) {
	list := exec.Command("go", "list", "-f", `{{.ImportPath}}|{{join .Imports ","}}|{{join .TestImports ","}},{{join .XTestImports ","}}`, "./...")
	list.Dir = root
	out, err := list.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	imported, forTests := make(map[string]bool), make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Split(line, "|")
		if len(fields) != 3 {
			continue
		}
		for _, q := range strings.Split(fields[1], ",") {
			imported[q] = true
		}
		for _, q := range strings.Split(fields[2], ",") {
			if q != "" && q != fields[0] {
				forTests[q] = true
			}
		}
	}
	var helpers []string
	for q := range forTests {
		if !imported[q] {
			helpers = append(helpers, q)
		}
	}
	return helpers, nil
}

// dumpDeps builds every package main of the module at root, inlining off
// so no call disappears into its caller, and returns every symbol the
// linker's dependency dump names on either side of an edge.
func dumpDeps(root string) ([]string, error) {
	list := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	list.Dir = root
	out, err := list.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	mains := strings.Fields(string(out))
	if len(mains) == 0 {
		return nil, fmt.Errorf("no package main under %s", root)
	}
	args := append([]string{"build", "-o", os.DevNull, "-gcflags=all=-l", "-ldflags=-dumpdep"}, mains...)
	build := exec.Command("go", args...)
	build.Dir = root
	var dump bytes.Buffer
	build.Stdout, build.Stderr = &dump, &dump
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("go build: %w\n%s", err, dump.Bytes())
	}
	var syms []string
	sc := bufio.NewScanner(&dump)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if ok {
			syms = append(syms, from, to)
		}
	}
	return syms, sc.Err()
}
