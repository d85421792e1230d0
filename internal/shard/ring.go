// Package shard is the placement layer of the sharded object-group
// fabric: a consistent-hash ring mapping object keys onto N independent
// totally-ordered groups (one gcs group per shard), so aggregate
// throughput scales with shard count instead of being capped by a single
// sequencer/merge loop. The ring is a pure function of (seed, vnodes,
// shard names): every process that knows those three values computes
// byte-identical placement, which is what lets clients route without any
// coordination service and lets migration move exactly the key ranges
// whose owner changed. The package has no dependency on the protocol
// stack — the router that binds shards to live groups lives in
// internal/core (ShardedBinding), and the ready-made sharded KV servant
// in store.go speaks the migration protocol the router drives.
package shard

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per shard when RingSpec.VNodes
// is zero. 2048 points per shard keeps the per-shard keyspace share within
// a few percent of uniform at realistic shard counts (see ring_test.go's
// balance bound).
const DefaultVNodes = 2048

// Ring is an immutable consistent-hash ring. Construct with NewRing;
// derive a grown ring with With. Placement is deterministic across
// processes: two rings built from the same seed, vnode count and shard
// set agree on every key's owner.
type Ring struct {
	seed   uint64
	vnodes int
	shards []string // sorted, unique
	points []point  // sorted by (hash, shard) — the ring itself
}

// point is one virtual node: a position on the 64-bit ring owned by a
// shard (indexed into shards).
type point struct {
	hash  uint64
	shard int32
}

// NewRing builds a ring placing vnodes virtual nodes per shard (0 selects
// DefaultVNodes). Duplicate shard names collapse; order is irrelevant.
func NewRing(seed uint64, vnodes int, shards ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(shards))
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if !seen[s] {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	sort.Strings(uniq)
	r := &Ring{seed: seed, vnodes: vnodes, shards: uniq}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for i, s := range uniq {
		h := hash64str(seed, s)
		for v := 0; v < vnodes; v++ {
			// Each virtual node's position derives from the shard's own
			// hash and the vnode index through one more mix round, so
			// adding a shard never perturbs another shard's points.
			r.points = append(r.points, point{hash: mix64(h ^ (uint64(v)+1)*0x9e3779b97f4a7c15), shard: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (vanishingly rare) break by shard name so placement
		// stays deterministic regardless of construction order.
		return r.shards[r.points[a].shard] < r.shards[r.points[b].shard]
	})
	return r
}

// Shards returns the shard names, sorted. The slice is shared; do not
// mutate.
func (r *Ring) Shards() []string { return r.shards }

// Size returns the number of shards.
func (r *Ring) Size() int { return len(r.shards) }

// Contains reports whether the ring places any keys on shard name.
func (r *Ring) Contains(name string) bool {
	i := sort.SearchStrings(r.shards, name)
	return i < len(r.shards) && r.shards[i] == name
}

// Owner returns the shard owning key: the first virtual node at or after
// the key's ring position, wrapping at the top. Empty on an empty ring.
func (r *Ring) Owner(key string) string {
	i := r.ownerIndex(hash64str(r.seed, key))
	if i < 0 {
		return ""
	}
	return r.shards[i]
}

// OwnerBytes is Owner for a byte-slice key, allocation-free (the key is
// hashed in place, never converted to a string).
func (r *Ring) OwnerBytes(key []byte) string {
	i := r.ownerIndex(hash64bytes(r.seed, key))
	if i < 0 {
		return ""
	}
	return r.shards[i]
}

// ownerIndex resolves a key hash to a shard index, or -1 on an empty ring.
func (r *Ring) ownerIndex(h uint64) int {
	n := len(r.points)
	if n == 0 {
		return -1
	}
	// First point with hash >= h; past the top wraps to points[0].
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == n {
		lo = 0
	}
	return int(r.points[lo].shard)
}

// With returns a ring with name added (r itself if already present).
func (r *Ring) With(name string) *Ring {
	if r.Contains(name) {
		return r
	}
	return NewRing(r.seed, r.vnodes, append(append([]string{}, r.shards...), name)...)
}

// Spec returns the ring's wire-portable description. Rebuilding from a
// spec reproduces placement exactly — migration requests carry a spec so
// every replica of a shard group computes the same moved key set.
func (r *Ring) Spec() RingSpec {
	return RingSpec{Seed: r.seed, VNodes: r.vnodes, Shards: append([]string(nil), r.shards...)}
}

// RingSpec is the portable description of a ring.
type RingSpec struct {
	Seed   uint64
	VNodes int
	Shards []string
}

// Build constructs the ring the spec describes.
func (sp RingSpec) Build() *Ring { return NewRing(sp.Seed, sp.VNodes, sp.Shards...) }

// String renders a compact summary.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(seed=%d vnodes=%d shards=%d)", r.seed, r.vnodes, len(r.shards))
}

// hash64str hashes a string key with the ring seed (FNV-1a folded through
// a final avalanche round; the raw FNV state is too regular for ring
// placement on short sequential keys).
func hash64str(seed uint64, s string) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return mix64(h)
}

// hash64bytes is hash64str over a byte slice.
func hash64bytes(seed uint64, b []byte) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 0x100000001b3
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
