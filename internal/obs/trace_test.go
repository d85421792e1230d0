package obs

import "testing"

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace ID allocated")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
	}
}

func TestDeriveTraceIDDeterministic(t *testing.T) {
	a := DeriveTraceID("g2g/cg", 7)
	b := DeriveTraceID("g2g/cg", 7)
	if a == 0 || a != b {
		t.Fatalf("derivation not deterministic: %s vs %s", a, b)
	}
	if DeriveTraceID("g2g/cg", 8) == a || DeriveTraceID("g2g/other", 7) == a {
		t.Fatal("distinct inputs collided")
	}
}
