// Package unreached is linked by no binary, and no other package's tests
// import it: the unlinked rule reports the package, once.
package unreached // want unlinked "package unreached: no command, example or benchmark links it"

// Dead would be reported with its package; the package's finding stands for it.
func Dead() {}
