package gcs

import (
	"testing"

	"newtop/internal/lint"
)

// TestAllocCrossCheckStaticVsRuntime ties the two allocation-budget layers
// together: the static allocflow counts (allocation *sites* reachable from
// an entry point, every branch included) must dominate the runtime
// AllocGuard budgets (allocations per *operation* on the steady-state
// path, cold branches never taken). If a static count ever dipped below
// the runtime ceiling for the same entry, one of the two measurements is
// lying — most likely the call-graph lost an edge and the analyzer went
// blind to part of the closure.
func TestAllocCrossCheckStaticVsRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the module through go/types; skipped in -short")
	}
	ld, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	// Only the entry-point packages are loaded: calls that leave the
	// analyzed set are conservatively charged as allocation sites, so the
	// counts here are higher than the whole-module lint run — which only
	// strengthens the ≥ comparison below.
	var pkgs []*lint.Package
	for _, path := range []string{
		"newtop/internal/gcs",
		"newtop/internal/transport",
		"newtop/internal/transport/tcpnet",
		"newtop/internal/obs/flight",
		"newtop/internal/core",
		"newtop/internal/shard",
	} {
		p, err := ld.Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", path, err)
		}
		pkgs = append(pkgs, p)
	}
	counts, err := lint.AllocFlowCounts(pkgs)
	if err != nil {
		t.Fatal(err)
	}

	// Runtime ceilings from alloc_guard_test.go, mapped to the manifest
	// entry that guards the same stage. The dispatch entry covers the
	// whole ingest path, so the decode ceiling is the comparable floor.
	crossChecks := []struct {
		entry   string
		runtime int
	}{
		{"newtop/internal/gcs.(*Group).Multicast", 8},        // multicast→deliver budget
		{"newtop/internal/gcs.encodeFramed", 2},              // encode budget
		{"newtop/internal/gcs.decodeMessage", 7},             // decode budget
		{"newtop/internal/gcs.(*Node).dispatch", 7},          // ingest ≥ decode budget
		{"newtop/internal/core.(*Server).serveReadLocal", 8}, // leased-read budget
	}
	for _, cc := range crossChecks {
		static, ok := counts[cc.entry]
		if !ok {
			t.Errorf("no static count for %s", cc.entry)
			continue
		}
		t.Logf("%-45s static sites=%3d runtime budget=%d", cc.entry, static, cc.runtime)
		if static < cc.runtime {
			t.Errorf("%s: static site count %d below runtime budget %d — the call graph is likely missing edges", cc.entry, static, cc.runtime)
		}
	}

	// And the manifest ceilings themselves must dominate their runtime
	// counterparts, or tightening one would silently invert the layers.
	for _, b := range lint.DefaultAllocBudgets() {
		for _, cc := range crossChecks {
			if b.Entry == cc.entry && b.Max < cc.runtime {
				t.Errorf("manifest ceiling for %s (%d) below runtime budget %d", b.Entry, b.Max, cc.runtime)
			}
		}
	}
}
