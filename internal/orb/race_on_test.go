//go:build race

package orb_test

// raceEnabled reports whether the race detector is active: it makes
// sync.Pool shed items at random, so allocation counts mean nothing.
const raceEnabled = true
