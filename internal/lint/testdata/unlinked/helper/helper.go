// Package helper is linked by no binary, but another package's tests
// import it and no non-test file does: a test helper, which the unlinked
// rule leaves alone.
package helper

// Check is what the tests that import helper call.
func Check() {}
