package core

// bounded is a map that remembers insertion order and forgets its oldest
// key once it holds more than cap: the retained replies, retained reply
// sets and duplicate filter of a server, and the early reply sets of a
// group-to-group attachment. Values are held inline in the map. Not safe
// for concurrent use; each user guards it with the lock it already holds.
type bounded[K comparable, V any] struct {
	m     map[K]V
	order []K
	cap   int
}

func newBounded[K comparable, V any](capacity int) *bounded[K, V] {
	return &bounded[K, V]{m: make(map[K]V), cap: capacity}
}

func (b *bounded[K, V]) get(k K) (V, bool) {
	v, ok := b.m[k]
	return v, ok
}

// put files v under k unless k is present — the first value stays — and
// reports whether it did.
func (b *bounded[K, V]) put(k K, v V) bool {
	if _, ok := b.m[k]; ok {
		return false
	}
	b.m[k] = v
	b.order = append(b.order, k)
	if len(b.order) > b.cap {
		delete(b.m, b.order[0])
		b.order = b.order[1:]
	}
	return true
}

// take removes and returns k's value.
func (b *bounded[K, V]) take(k K) (V, bool) {
	v, ok := b.m[k]
	delete(b.m, k)
	return v, ok
}
