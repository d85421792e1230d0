// Command newtop-lint runs the protocol-aware static analysis suite over
// the module: wiresym (wire envelope encode/decode symmetry), wirepool (no
// use of a pooled writer after it is recycled), lockblock (no blocking
// operations under event-loop mutexes), detclock (no wall clock or
// randomness in protocol decisions), timerwheel (recurring timers only on
// the shared wheel), goorphan (every unbounded goroutine has a stop
// signal) and errdrop (send-path errors dropped only with an annotated
// reason). It is a ci.sh stage: any finding that is not suppressed with an
// inline `//lint:ok <rule> <reason>` directive fails the build, and a
// directive that suppresses nothing, or names a rule the suite does not
// have, is itself a finding.
//
// Usage:
//
//	newtop-lint [-rules wiresym,errdrop] [-json] [packages]
//
// Packages default to ./... and support the go tool's /... suffix. All
// selected packages are loaded first, each rule runs on the packages its
// Applies gate admits, and the loader cache is shared across all rules, so
// one invocation pays the standard-library type-check exactly once.
// Diagnostics print in stable (file, line, column, rule) order; -json
// emits the same list as a JSON array for CI diffing and editor tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"newtop/internal/lint"
)

func main() {
	rules := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := flag.Bool("list", false, "list the available rules and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	flag.Parse()

	analyzers, err := lint.AnalyzersNamed(*rules)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ld, err := lint.NewLoader(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	paths, err := ld.Expand(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	exit := 0
	var pkgs []*lint.Package
	for _, path := range paths {
		pkg, err := ld.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 2
			continue
		}
		pkgs = append(pkgs, pkg)
	}

	diags := lint.CheckModule(pkgs, analyzers)
	if len(diags) > 0 && exit == 0 {
		exit = 1
	}
	if *jsonOut {
		type jsonDiag struct {
			File   string `json:"file"`
			Line   int    `json:"line"`
			Column int    `json:"column"`
			Rule   string `json:"rule"`
			Msg    string `json:"msg"`
		}
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:   relFile(wd, d.Pos.Filename),
				Line:   d.Pos.Line,
				Column: d.Pos.Column,
				Rule:   d.Rule,
				Msg:    d.Msg,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 2
		}
	} else {
		for _, d := range diags {
			d.Pos.Filename = relFile(wd, d.Pos.Filename)
			fmt.Println(d)
		}
	}
	os.Exit(exit)
}

// relFile renders a filename relative to the working directory, the format
// editors and CI logs expect.
func relFile(wd, name string) string {
	if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
