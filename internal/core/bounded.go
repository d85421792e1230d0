package core

// bounded is a map that remembers insertion order and forgets its oldest
// key once it holds cap of them: the early reply sets of a group-to-group
// attachment, and what a server retains for a client whose call numbers
// carry no floor (group-to-group, see clientLog). The order is a fixed
// circular buffer, so a full map evicts in place and a put costs no more
// than the map's own insert. Values are held inline in the map. Not safe for
// concurrent use; each user guards it with the lock it already holds.
type bounded[K comparable, V any] struct {
	m     map[K]V
	order []K // the last cap puts; once full, the oldest sits at next
	next  int
}

func newBounded[K comparable, V any](capacity int) *bounded[K, V] {
	return &bounded[K, V]{m: make(map[K]V, capacity), order: make([]K, 0, capacity)}
}

func (b *bounded[K, V]) get(k K) (V, bool) {
	v, ok := b.m[k]
	return v, ok
}

// put files v under k unless k is present — the first value stays — and
// returns the value it forgot to make room, if it did.
func (b *bounded[K, V]) put(k K, v V) (evicted V, ok bool) {
	if _, dup := b.m[k]; dup {
		return evicted, false
	}
	if len(b.order) < cap(b.order) {
		b.order = append(b.order, k) // fills the capacity newBounded gave it; it never grows past it
	} else {
		old := b.order[b.next]
		if evicted, ok = b.m[old]; ok {
			delete(b.m, old)
		}
		b.order[b.next] = k
		b.next = (b.next + 1) % len(b.order)
	}
	b.m[k] = v // the map holds at most cap keys, the size it was made with
	return evicted, ok
}

// take removes and returns k's value.
func (b *bounded[K, V]) take(k K) (V, bool) {
	v, ok := b.m[k]
	delete(b.m, k)
	return v, ok
}
