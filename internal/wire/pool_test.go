package wire_test

import (
	"bytes"
	"testing"

	"newtop/internal/lint/allocs"
	"newtop/internal/wire"
)

func TestPooledWriterRoundTrip(t *testing.T) {
	w := wire.GetWriter()
	w.Uvarint(42)
	w.String("pooled")
	enc := w.Detach()
	wire.PutWriter(w)

	r := wire.NewReader(enc)
	if got := r.Uvarint(); got != 42 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.String(); got != "pooled" {
		t.Errorf("String = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestGetWriterIsEmpty(t *testing.T) {
	// Dirty a writer, recycle it, and check the next Get starts clean.
	w := wire.GetWriter()
	w.String("leftover state")
	wire.PutWriter(w)
	for i := 0; i < 8; i++ {
		w2 := wire.GetWriter()
		if len(w2.Bytes()) != 0 {
			t.Fatalf("pooled writer not reset: %d bytes", len(w2.Bytes()))
		}
		wire.PutWriter(w2)
	}
}

func TestDetachIsIndependent(t *testing.T) {
	w := wire.GetWriter()
	w.Blob([]byte{1, 2, 3})
	enc := w.Detach()
	// Further writes and a reset must not affect the detached copy.
	w.Blob(bytes.Repeat([]byte{0xFF}, 64))
	w.Reset()
	w.Blob(bytes.Repeat([]byte{0xEE}, 64))
	wire.PutWriter(w)

	r := wire.NewReader(enc)
	got := r.Blob()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("detached bytes corrupted: %v", got)
	}
}

func TestPutWriterNil(t *testing.T) {
	wire.PutWriter(nil) // must not panic
}

func TestBlobRefAliasesInput(t *testing.T) {
	w := wire.NewWriter()
	w.Blob([]byte("payload"))
	enc := w.Bytes()

	r := wire.NewReader(enc)
	ref := r.BlobRef()
	if string(ref) != "payload" {
		t.Fatalf("BlobRef = %q", ref)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	// The reference aliases the frame: mutating the frame shows through
	// (that is the contract callers opt into).
	enc[1] = 'P'
	if string(ref) != "Payload" {
		t.Fatalf("BlobRef does not alias input: %q", ref)
	}
	// The alias is capacity-clipped: appending to it cannot clobber the
	// bytes that follow in the frame.
	if cap(ref) != len(ref) {
		t.Fatalf("BlobRef not three-index clipped: len %d cap %d", len(ref), cap(ref))
	}
}

func TestBlobRefTruncated(t *testing.T) {
	w := wire.NewWriter()
	w.Uvarint(1000) // length prefix far past the input
	r := wire.NewReader(w.Bytes())
	if ref := r.BlobRef(); ref != nil {
		t.Fatalf("BlobRef on truncated input = %v", ref)
	}
	if r.Err() == nil {
		t.Fatal("expected error on truncated BlobRef")
	}
}

// TestAllocGuardWire budgets the pooled encode path (exactly one
// allocation: the detached result) and the zero-copy decode path (zero).
func TestAllocGuardWire(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 100)
	var enc []byte
	encode := func() {
		w := wire.GetWriter()
		w.Byte(1)
		w.Uvarint(99)
		w.String("group/name")
		w.Blob(payload)
		enc = w.Detach()
		wire.PutWriter(w)
	}
	if avg := allocs.PerOp(500, encode); avg > 1 && !allocs.Race { // the race detector's sync.Pool drops writers at random
		t.Errorf("pooled encode allocates %.3f/op, budget 1", avg)
	}
	decode := func() {
		r := wire.NewReader(enc)
		_ = r.Byte()
		_ = r.Uvarint()
		_ = r.BlobRef() // the string field, read without conversion
		_ = r.BlobRef()
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := allocs.PerOp(500, decode); avg > 0 {
		t.Errorf("zero-copy decode allocates %.3f/op, budget 0", avg)
	}
}
