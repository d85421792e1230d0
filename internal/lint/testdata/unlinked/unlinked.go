// Package unlinked is the fixture of the unlinked rule. TestUnlinked
// injects the linker's symbols instead of building binaries: Linked and a
// closure of it, Get and Put of Box only as instantiations (Put only as a
// method value), and Stale by name. Expectations live in the `want`
// comments.
package unlinked

import _ "unsafe" // for go:linkname

// Linked is linked under its own name.
func Linked() func() int {
	return func() int { return 1 }
}

// Box is generic: the linker names only its instantiations.
type Box[T any] struct{ v T }

// Get is linked as "(*Box[go.shape.int]).Get".
func (b *Box[T]) Get() T { return b.v }

// Put is linked only as a method value, "(*Box[go.shape.int]).Put-fm".
func (b *Box[T]) Put(v T) { b.v = v }

// Drop is linked by no binary.
func (b *Box[T]) Drop() {} // want unlinked "unlinked.(*Box).Drop: no command"

// Dead is linked by no binary.
func Dead() {} // want unlinked "unlinked.Dead: no command"

// Kept is linked by no binary, and says why it stays.
//
//lint:ok unlinked the fixture's escape: a function a binary must keep unlinked
func Kept() {}

// Stale is linked, so its escape suppresses nothing.
func Stale() {} /* want directive "stale //lint:ok unlinked" */ //lint:ok unlinked stale: Stale is linked

// procPin has no body: go:linkname pulls it in from the runtime, and the
// rule skips it.
//
//go:linkname procPin runtime.procPin
func procPin() int
