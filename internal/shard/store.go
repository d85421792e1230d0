package shard

import (
	"bytes"
	"fmt"
	"sync"

	"newtop/internal/wire"
)

// Store is the ready-made sharded KV servant: the application object each
// replica of one shard group hosts. It implements the usual replicated-kv
// methods (put/get/del/len) plus the migration protocol the
// ShardedBinding router drives when the ring changes:
//
//	shard.export  args: ring spec     → pairs this shard no longer owns
//	shard.install args: encoded pairs → install migrated pairs
//	shard.drop    args: ring spec     → delete pairs this shard no longer owns
//
// All three run as ordered invocations, so every replica of the group
// computes the same moved key set from the same spec and the replicas
// never diverge. Snapshot/Restore make the store usable with
// ServeReplica's flush-cut state transfer.
//
// Every replica executes every write, so a put allocates only what the
// store keeps: a put to an existing key overwrites its value in place
// when the new one has the same length. The store's buffers therefore
// change under it, and nothing it hands out aliases them: get, Snapshot
// and shard.export copy out under mu, and the replies it shares (ok,
// miss) are never mutated.
type Store struct {
	shard string // this group's shard name on the ring ("" = unsharded)
	mu    sync.Mutex
	m     map[string][]byte
}

// The shared replies. The invocation layer's reply cache retains a reply
// for retries, so one read-only slice serves every call.
var (
	replyOK   = []byte("ok")
	replyMiss = []byte("miss")
)

// NewStore creates a servant for the named shard. The name must match the
// shard's name on the router's ring; an empty name disables ownership
// checks (plain replicated KV).
func NewStore(shard string) *Store {
	return &Store{shard: shard, m: make(map[string][]byte)}
}

// Len returns the number of keys currently held.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// Handle is the core.Handler for this servant.
func (st *Store) Handle(method string, args []byte) ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch method {
	case "put": // args: "key=value"
		i := bytes.IndexByte(args, '=')
		if i < 0 {
			return nil, fmt.Errorf("shard %s: bad put %q", st.shard, args)
		}
		k, v := args[:i], args[i+1:]
		// m[string(k)] looks up without converting; assigning through it
		// allocates the key even when it is present, so only a value of a
		// new length is assigned (into its old buffer while that has room).
		if old, ok := st.m[string(k)]; ok && len(old) == len(v) {
			copy(old, v)
		} else {
			st.m[string(k)] = append(old[:0], v...)
		}
		return replyOK, nil
	case "get":
		return append([]byte{}, st.m[string(args)]...), nil
	case "del":
		if _, ok := st.m[string(args)]; !ok {
			return replyMiss, nil
		}
		delete(st.m, string(args))
		return replyOK, nil
	case "len":
		return []byte(fmt.Sprint(len(st.m))), nil
	case "shard.export":
		return st.exportMoved(args)
	case "shard.install":
		return st.install(args)
	case "shard.drop":
		return st.dropMoved(args)
	default:
		return nil, fmt.Errorf("shard %s: unknown method %q", st.shard, method)
	}
}

// exportMoved returns (encoded) every pair whose owner under the supplied
// ring spec is NOT this shard. The pairs stay in place — the router
// installs them at their new owners first and only then issues
// shard.drop, so a crash mid-migration leaves keys readable at the old
// owner rather than lost.
func (st *Store) exportMoved(specArgs []byte) ([]byte, error) {
	ring, err := decodeSpec(specArgs)
	if err != nil {
		return nil, fmt.Errorf("shard %s: export: %w", st.shard, err)
	}
	moved := make(map[string]string)
	for k, v := range st.m {
		if ring.Owner(k) != st.shard {
			moved[k] = string(v)
		}
	}
	return EncodePairs(moved), nil
}

// install merges migrated pairs into the map. Existing keys are NOT
// overwritten: a client may have written through the new owner between
// export and install, and that newer ordered write must win.
func (st *Store) install(pairArgs []byte) ([]byte, error) {
	pairs, err := DecodePairs(pairArgs)
	if err != nil {
		return nil, fmt.Errorf("shard %s: install: %w", st.shard, err)
	}
	n := 0
	for k, v := range pairs {
		if _, exists := st.m[k]; !exists {
			st.m[k] = []byte(v)
			n++
		}
	}
	return []byte(fmt.Sprint(n)), nil
}

// dropMoved deletes every pair whose owner under the supplied ring spec
// is not this shard — the final phase of a migration, after the new
// owners have installed.
func (st *Store) dropMoved(specArgs []byte) ([]byte, error) {
	ring, err := decodeSpec(specArgs)
	if err != nil {
		return nil, fmt.Errorf("shard %s: drop: %w", st.shard, err)
	}
	n := 0
	for k := range st.m {
		if ring.Owner(k) != st.shard {
			delete(st.m, k)
			n++
		}
	}
	return []byte(fmt.Sprint(n)), nil
}

// Snapshot encodes the full map for flush-cut state transfer
// (core.ServeConfig.Snapshot).
func (st *Store) Snapshot() ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.Uvarint(uint64(len(st.m)))
	for k, v := range st.m {
		w.String(k)
		w.Blob(v) // the same bytes as EncodePairs' String
	}
	return w.Detach(), nil
}

// Restore replaces the map with a snapshot taken by another replica
// (core.ServeConfig.Restore).
func (st *Store) Restore(b []byte) error {
	pairs, err := DecodePairs(b)
	if err != nil {
		return err
	}
	m := make(map[string][]byte, len(pairs))
	for k, v := range pairs {
		m[k] = []byte(v)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.m = m
	return nil
}

// EncodeSpec serialises a ring spec for shard.export / shard.drop args.
func EncodeSpec(sp RingSpec) []byte {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.Uvarint(sp.Seed)
	w.Uvarint(uint64(sp.VNodes))
	w.Uvarint(uint64(len(sp.Shards)))
	for _, s := range sp.Shards {
		w.String(s)
	}
	return w.Detach()
}

// DecodeSpec parses EncodeSpec output.
func DecodeSpec(b []byte) (RingSpec, error) {
	r := wire.NewReader(b)
	sp := RingSpec{Seed: r.Uvarint(), VNodes: int(r.Uvarint())}
	n := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return RingSpec{}, err
	}
	if n < 0 || n > 1<<20 {
		return RingSpec{}, fmt.Errorf("ring spec: implausible shard count %d", n)
	}
	sp.Shards = make([]string, 0, n)
	for i := 0; i < n; i++ {
		sp.Shards = append(sp.Shards, r.String())
	}
	if err := r.Done(); err != nil {
		return RingSpec{}, err
	}
	return sp, nil
}

// decodeSpec parses and builds in one step for the servant methods.
func decodeSpec(b []byte) (*Ring, error) {
	sp, err := DecodeSpec(b)
	if err != nil {
		return nil, err
	}
	return sp.Build(), nil
}

// EncodePairs serialises a key→value map for shard.install args and
// snapshots.
func EncodePairs(m map[string]string) []byte {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	w.Uvarint(uint64(len(m)))
	for k, v := range m {
		w.String(k)
		w.String(v)
	}
	return w.Detach()
}

// DecodePairs parses EncodePairs output.
func DecodePairs(b []byte) (map[string]string, error) {
	r := wire.NewReader(b)
	n := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > 1<<28 {
		return nil, fmt.Errorf("pairs: implausible count %d", n)
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.String()
		m[k] = r.String()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}
