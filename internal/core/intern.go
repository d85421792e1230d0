package core

import (
	"maps"
	"sync"
	"sync/atomic"

	"newtop/internal/ids"
	"newtop/internal/wire"
)

// interner hands out the identifier strings that repeat on every
// invocation-layer message — process IDs, call-ID clients, stamp senders,
// method and group names — so that decoding one converts it from the
// frame's bytes once per Service rather than once per message (gcs's
// decoder does the same for its own envelopes). Every dispatch worker and
// the ORB's receive loop decode, so the hit path takes no lock: one atomic
// load of the published map and a probe on the frame's bytes, which Go
// compiles without allocating. A miss takes mu and files the string in
// dirty; once dirty has grown by a quarter of the published map, a merged
// copy is published, so each new identifier costs amortised O(1) copying.
//
// The table is bounded: once it holds internCap identifiers it is published
// whole and stops growing, and a peer streaming unique ones gets plain
// conversions that take no lock either. A nil *interner interns nothing.
type interner struct {
	read  atomic.Pointer[map[string]string]
	mu    sync.Mutex
	dirty map[string]string // filed since the last publication
}

// internCap bounds an interner, as gcs's decoder bounds its tables.
const internCap = 4096

// str reads a length-prefixed string, interned.
func (t *interner) str(r *wire.Reader) string { return t.intern(r.BlobRef()) }

// proc reads a length-prefixed process identifier, interned.
func (t *interner) proc(r *wire.Reader) ids.ProcessID { return ids.ProcessID(t.intern(r.BlobRef())) }

// intern returns b as a string, the table's copy when it has one.
func (t *interner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if t == nil {
		return string(b)
	}
	if m := t.read.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
		if len(*m) >= internCap {
			return string(b)
		}
	}
	return t.miss(b)
}

// miss files b, unless the table is full, and publishes the merged table
// when dirty has grown enough.
func (t *interner) miss(b []byte) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var read map[string]string
	if m := t.read.Load(); m != nil {
		read = *m
	}
	if s, ok := read[string(b)]; ok { // published while we waited
		return s
	}
	if s, ok := t.dirty[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(read)+len(t.dirty) >= internCap {
		return s
	}
	if t.dirty == nil {
		t.dirty = make(map[string]string)
	}
	t.dirty[s] = s
	if len(t.dirty) > len(read)/4 || len(read)+len(t.dirty) == internCap {
		merged := make(map[string]string, len(read)+len(t.dirty))
		maps.Copy(merged, read)
		maps.Copy(merged, t.dirty)
		t.read.Store(&merged)
		t.dirty = nil
	}
	return s
}
