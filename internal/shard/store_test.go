package shard

import (
	"fmt"
	"testing"

	"newtop/internal/lint/allocs"
)

func put(t *testing.T, st *Store, k, v string) {
	t.Helper()
	if _, err := st.Handle("put", []byte(k+"="+v)); err != nil {
		t.Fatalf("put %s: %v", k, err)
	}
}

func get(t *testing.T, st *Store, k string) string {
	t.Helper()
	v, err := st.Handle("get", []byte(k))
	if err != nil {
		t.Fatalf("get %s: %v", k, err)
	}
	return string(v)
}

func TestStoreBasicOps(t *testing.T) {
	st := NewStore("kv/s0")
	put(t, st, "a", "1")
	put(t, st, "b", "2")
	if got := get(t, st, "a"); got != "1" {
		t.Fatalf("get a = %q", got)
	}
	if n, _ := st.Handle("len", nil); string(n) != "2" {
		t.Fatalf("len = %s", n)
	}
	if out, _ := st.Handle("del", []byte("a")); string(out) != "ok" {
		t.Fatalf("del = %s", out)
	}
	if out, _ := st.Handle("del", []byte("a")); string(out) != "miss" {
		t.Fatalf("second del = %s", out)
	}
	if _, err := st.Handle("put", []byte("novalue")); err == nil {
		t.Fatal("malformed put should error")
	}
	if _, err := st.Handle("bogus", nil); err == nil {
		t.Fatal("unknown method should error")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d", st.Len())
	}
}

func TestSpecRoundTrip(t *testing.T) {
	sp := RingSpec{Seed: 99, VNodes: 64, Shards: []string{"kv/s0", "kv/s1", "kv/s2"}}
	got, err := DecodeSpec(EncodeSpec(sp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != sp.Seed || got.VNodes != sp.VNodes || len(got.Shards) != 3 || got.Shards[1] != "kv/s1" {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := DecodeSpec([]byte{0xff}); err == nil {
		t.Fatal("truncated spec should error")
	}
}

func TestPairsRoundTrip(t *testing.T) {
	in := map[string]string{"a": "1", "b": "2", "empty": ""}
	out, err := DecodePairs(EncodePairs(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out["a"] != "1" || out["empty"] != "" {
		t.Fatalf("round trip: %v", out)
	}
	if _, err := DecodePairs([]byte{0x02, 0x01}); err == nil {
		t.Fatal("truncated pairs should error")
	}
}

// TestMigrationProtocol drives the three-phase export→install→drop flow
// between two stores exactly the way the router does, and checks every
// key ends at its ring owner with nothing lost.
func TestMigrationProtocol(t *testing.T) {
	old := NewRing(5, 0, "kv/s0")
	grown := old.With("kv/s1")

	s0 := NewStore("kv/s0")
	s1 := NewStore("kv/s1")
	const keys = 500
	for i := 0; i < keys; i++ {
		put(t, s0, fmt.Sprintf("k%03d", i), fmt.Sprint(i))
	}

	spec := EncodeSpec(grown.Spec())
	exported, err := s0.Handle("shard.export", spec)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := DecodePairs(exported)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) == 0 || len(moved) == keys {
		t.Fatalf("export moved %d/%d keys — expected a proper subset", len(moved), keys)
	}
	// Export must not remove anything yet: a crash between phases leaves
	// keys readable at the old owner.
	if s0.Len() != keys {
		t.Fatalf("export mutated the source store: %d keys", s0.Len())
	}

	// A client writes through the NEW owner between export and install;
	// install must not clobber it.
	var racedKey string
	for k := range moved {
		racedKey = k
		break
	}
	put(t, s1, racedKey, "newer")

	if _, err := s1.Handle("shard.install", exported); err != nil {
		t.Fatal(err)
	}
	if got := get(t, s1, racedKey); got != "newer" {
		t.Fatalf("install clobbered a post-export write: %q", got)
	}

	if _, err := s0.Handle("shard.drop", spec); err != nil {
		t.Fatal(err)
	}

	// Every key must now live at exactly its ring owner, with the right
	// value (except the raced key, deliberately overwritten).
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%03d", i)
		want := fmt.Sprint(i)
		if k == racedKey {
			want = "newer"
		}
		owner := map[string]*Store{"kv/s0": s0, "kv/s1": s1}[grown.Owner(k)]
		if got := get(t, owner, k); got != want {
			t.Fatalf("key %s at owner %s = %q, want %q", k, grown.Owner(k), got, want)
		}
	}
	if s0.Len()+s1.Len() != keys {
		t.Fatalf("key count drifted: %d + %d != %d", s0.Len(), s1.Len(), keys)
	}
}

func TestSnapshotRestore(t *testing.T) {
	a := NewStore("kv/s0")
	put(t, a, "x", "1")
	put(t, a, "y", "2")
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := NewStore("kv/s0")
	put(t, b, "stale", "gone")
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 || get(t, b, "x") != "1" || get(t, b, "stale") != "" {
		t.Fatal("restore did not replace state")
	}
	if err := b.Restore([]byte{0x09}); err == nil {
		t.Fatal("corrupt snapshot should error")
	}
}

// A put overwrites a value of the same length in place, so nothing the
// store handed out before it may alias the store's buffers: a get result,
// a snapshot and an export taken before the put must read the old value
// after it, and a put must not keep its args.
func TestStoreHandsOutNoAliases(t *testing.T) {
	st := NewStore("kv/s0")
	args := []byte("k=aaaa")
	if _, err := st.Handle("put", args); err != nil {
		t.Fatal(err)
	}
	copy(args, "k=zzzz") // the caller reuses its buffer
	if got := get(t, st, "k"); got != "aaaa" {
		t.Fatalf("the store kept the put's args: get = %q", got)
	}

	got, err := st.Handle("get", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	elsewhere := EncodeSpec(NewRing(1, 0, "kv/s1").Spec()) // every key moves
	exported, err := st.Handle("shard.export", elsewhere)
	if err != nil {
		t.Fatal(err)
	}
	put(t, st, "k", "bbbb")
	if v := get(t, st, "k"); v != "bbbb" {
		t.Fatalf("overwrite: get = %q", v)
	}
	if string(got) != "aaaa" {
		t.Fatalf("a get result changed under a later put: %q", got)
	}
	for what, b := range map[string][]byte{"snapshot": snap, "export": exported} {
		pairs, err := DecodePairs(b)
		if err != nil || pairs["k"] != "aaaa" {
			t.Fatalf("%s changed under a later put: %v, err %v", what, pairs, err)
		}
	}
}

// A value that outgrows its key's buffer, or shrinks inside it, is stored
// whole; the snapshot reads exactly as EncodePairs writes the same pairs.
func TestStoreOverwriteResizes(t *testing.T) {
	st := NewStore("")
	for _, v := range []string{"ab", "abcdefghijklmnop", "xy", "", "0123456789abcdefghij", "kl"} {
		put(t, st, "k", v)
		if got := get(t, st, "k"); got != v {
			t.Fatalf("put %q, get %q", v, got)
		}
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := EncodePairs(map[string]string{"k": "kl"}); string(snap) != string(want) {
		t.Fatalf("snapshot %x, EncodePairs %x", snap, want)
	}
}

// TestAllocGuardStorePut budgets the servant's write, which every replica
// executes: a put to an existing key overwrites its value in place and
// answers with the shared reply, allocating nothing (run by ci.sh's
// AllocGuard stage). Converting the args to a string, and assigning the
// value through m[string(k)], measured 2.0 allocs/op.
func TestAllocGuardStorePut(t *testing.T) {
	st := NewStore("")
	args := [][]byte{[]byte("c0-k0001=0123456789"), []byte("c0-k0001=abcdefghij")}
	i := 0
	put := func() {
		i++
		if _, err := st.Handle("put", args[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	put()
	if avg := allocs.PerOp(1000, put); avg > 0 {
		t.Fatalf("a put to an existing key allocates %.3f/op, budget 0", avg)
	}
}
