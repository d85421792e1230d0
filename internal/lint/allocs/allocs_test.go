package allocs

import "testing"

var sink []byte

// TestPerOpKeepsTheFraction is the reason the package exists: one
// allocation every other run reads 0 through testing.AllocsPerRun and 0.5
// through PerOp.
func TestPerOpKeepsTheFraction(t *testing.T) {
	n := 0
	everyOther := func() {
		if n++; n%2 == 0 {
			sink = make([]byte, n)
		}
	}
	if got := testing.AllocsPerRun(1000, everyOther); got != 0 {
		t.Fatalf("testing.AllocsPerRun = %v, want its truncated 0", got)
	}
	if got := PerOp(1000, everyOther); got != 0.5 {
		t.Fatalf("PerOp = %v, want 0.5", got)
	}
	if got := PerOp(1000, func() {}); got != 0 {
		t.Fatalf("PerOp of an empty operation = %v, want 0", got)
	}
}
