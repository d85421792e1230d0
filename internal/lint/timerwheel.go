package lint

import (
	"fmt"
	"go/ast"
	"path/filepath"
)

// TimerWheel forbids private timer goroutines in the group communication
// layer. The delivery engine runs every group's tick machinery off one
// shared hierarchical timer wheel (wheel.go); a stray time.NewTicker or
// time.AfterFunc reintroduces exactly the per-group timer goroutine the
// wheel exists to eliminate — invisible in the wheel's depth gauge, and a
// goroutine-per-group regression at 10k-group scale. One-shot
// time.NewTimer uses (the resend of a join request that got no view, the
// wheel's own sleep) are fine; the rule targets the recurring/background
// forms only. Legitimate exceptions
// carry //lint:ok timerwheel <reason>.
func TimerWheel() *Analyzer {
	return &Analyzer{
		Name:    "timerwheel",
		Doc:     "no private tickers or timer callbacks in gcs; schedule on the shared wheel",
		Applies: pathIn("internal/gcs"),
		Run:     runTimerWheel,
	}
}

// timerwheelAllowFiles are exempt basenames: the wheel implementation is
// where the process's one timer lives.
var timerwheelAllowFiles = map[string]bool{
	"wheel.go": true,
}

// forbidden time package functions: the recurring and callback-spawning
// forms that create standing timer work outside the wheel.
var timerwheelTimeFuncs = map[string]bool{
	"NewTicker": true,
	"Tick":      true,
	"AfterFunc": true,
}

func runTimerWheel(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		base := filepath.Base(p.Fset.Position(f.Pos()).Filename)
		if timerwheelAllowFiles[base] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Info.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if timerwheelTimeFuncs[obj.Name()] {
				diags = append(diags, Diagnostic{
					Rule: "timerwheel",
					Pos:  p.Fset.Position(id.Pos()),
					Msg: fmt.Sprintf("time.%s in gcs code (a private timer bypasses the shared wheel; register a wheel entry instead)",
						obj.Name()),
				})
			}
			return true
		})
	}
	return diags
}
