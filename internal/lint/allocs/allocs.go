// Package allocs measures the heap allocations of a test operation. It is
// the runtime allocation guard's one instrument: every TestAllocGuard*
// test budgets its hot path with PerOp, and ci.sh's "alloc budgets" stage
// runs them (DESIGN.md §13 records which guard catches which regression).
//
// PerOp is testing.AllocsPerRun without the truncation. AllocsPerRun
// returns a whole number, so an operation that allocates on every other
// run, or an arena that refills every few runs, reads 0 and passes a
// budget of 0. PerOp returns the exact mean, so a budget can sit just
// above the amortised refills a path is meant to have.
package allocs

import "runtime"

// PerOp runs f once to warm up, then runs times, and returns the mean
// number of heap allocations per run. Like testing.AllocsPerRun it counts
// process-wide with GOMAXPROCS at 1, so background goroutines must be
// quiet while it measures.
func PerOp(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(runs)
}
