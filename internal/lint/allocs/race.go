//go:build race

package allocs

// Race reports whether the race detector is on. It makes sync.Pool drop
// items at random, so a pooled path allocates under it by design: guards
// log their reading there but do not hold it to the budget.
const Race = true
