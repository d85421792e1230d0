//go:build !race

package allocs

// Race reports whether the race detector is on (see race.go).
const Race = false
