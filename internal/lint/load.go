package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader type-checks the module's packages from source. Imports inside the
// module resolve against the module tree; everything else (the standard
// library) resolves through go/importer's source compiler, so the loader
// needs no pre-built export data and no tooling beyond the stdlib.
type Loader struct {
	Root   string // absolute module root (directory holding go.mod)
	Module string // module path from go.mod ("newtop")
	Fset   *token.FileSet

	ctx  build.Context
	std  types.ImporterFrom
	pkgs map[string]*loadEntry // keyed by import path
}

type loadEntry struct {
	pkg     *Package
	tpkg    *types.Package
	err     error
	loading bool
}

// NewLoader roots a loader at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, mod, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	ctx := build.Default
	return &Loader{
		Root:   root,
		Module: mod,
		Fset:   fset,
		ctx:    ctx,
		std:    src,
		pkgs:   make(map[string]*loadEntry),
	}, nil
}

// findModule walks upward from dir to the enclosing go.mod.
func findModule(dir string) (root, module string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// from the module tree, the rest from stdlib source.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		e := l.load(path)
		return e.tpkg, e.err
	}
	return l.std.ImportFrom(path, dir, mode)
}

// Load type-checks one module package by import path.
func (l *Loader) Load(path string) (*Package, error) {
	e := l.load(path)
	return e.pkg, e.err
}

// load resolves and memoizes one module package.
func (l *Loader) load(path string) *loadEntry {
	if e, ok := l.pkgs[path]; ok {
		if e.loading {
			return &loadEntry{err: fmt.Errorf("lint: import cycle through %q", path)}
		}
		return e
	}
	e := &loadEntry{loading: true}
	l.pkgs[path] = e
	dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")))
	e.pkg, e.tpkg, e.err = l.loadDir(dir, path)
	e.loading = false
	return e
}

// loadDir parses and type-checks the non-test Go files of one directory.
func (l *Loader) loadDir(dir, path string) (*Package, *types.Package, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: %s: %w", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var terrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(terrs) > 0 {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %v", path, terrs[0])
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, tpkg, nil
}

// Expand resolves package patterns ("./...", "./internal/gcs",
// "newtop/internal/wire") into module import paths, in sorted order.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			paths, err := l.walk(l.Root)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			dir, err := l.patternDir(base)
			if err != nil {
				return nil, err
			}
			paths, err := l.walk(dir)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		default:
			dir, err := l.patternDir(pat)
			if err != nil {
				return nil, err
			}
			rel, err := filepath.Rel(l.Root, dir)
			if err != nil {
				return nil, err
			}
			if rel == "." {
				add(l.Module)
			} else {
				add(l.Module + "/" + filepath.ToSlash(rel))
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// patternDir maps one non-wildcard pattern to a directory.
func (l *Loader) patternDir(pat string) (string, error) {
	if pat == l.Module {
		return l.Root, nil
	}
	if rest, ok := strings.CutPrefix(pat, l.Module+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), nil
	}
	if strings.HasPrefix(pat, "./") || pat == "." {
		return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(pat, "./"))), nil
	}
	return "", fmt.Errorf("lint: unsupported package pattern %q", pat)
}

// walk lists every directory under root that contains buildable Go files,
// skipping testdata, hidden and underscore-prefixed directories (matching
// the go tool's pattern rules).
func (l *Loader) walk(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := l.ctx.ImportDir(p, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(l.Root, p)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.Module)
		} else {
			out = append(out, l.Module+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	return out, err
}
