package transport

// Arena carves byte slices out of large chunks, so that a stream of small
// messages pays one allocation per chunk instead of one per message. The
// transports carve inbound frames from one and copy outbound payloads into
// one; gcs copies the payloads it keeps for a multicast into one.
//
// A chunk is never reused once carved into: the slices it hands out may be
// retained indefinitely (receivers decode with wire.Reader.BlobRef, a group
// keeps a payload until it is stable), so a chunk is surrendered to the
// garbage collector, which reclaims it when the last slice carved from it
// dies. An Arena is not safe for concurrent use.
type Arena struct {
	// Size is the chunk size; a request of Size bytes or more gets an
	// allocation of its own.
	Size  int
	chunk []byte
	used  int
}

// Carve returns n fresh bytes whose capacity ends at n, so an append to
// them cannot run into the next slice carved.
func (a *Arena) Carve(n int) []byte {
	if n >= a.Size {
		return make([]byte, n)
	}
	if len(a.chunk)-a.used < n {
		a.chunk = make([]byte, a.Size)
		a.used = 0
	}
	b := a.chunk[a.used : a.used+n : a.used+n]
	a.used += n
	return b
}

// Copy returns a carved copy of b.
func (a *Arena) Copy(b []byte) []byte {
	out := a.Carve(len(b))
	copy(out, b)
	return out
}
