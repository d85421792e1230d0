package wire_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"newtop/internal/wire"
	"newtop/internal/wire/wiretest"
)

func TestRoundTripPrimitives(t *testing.T) {
	w := wire.NewWriter()
	w.Byte(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.Uvarint(0)
	w.Uvarint(math.MaxUint64)
	w.Varint(-12345)
	w.Varint(12345)
	w.Blob([]byte{1, 2, 3})
	w.Blob(nil)
	w.String("héllo, wörld")
	w.String("")

	r := wire.NewReader(w.Bytes())
	if got := r.Byte(); got != 0xAB {
		t.Errorf("Byte = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint(0) = %d", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint(max) = %d", got)
	}
	if got := r.Varint(); got != -12345 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Varint(); got != 12345 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Blob(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", got)
	}
	if got := r.Blob(); len(got) != 0 {
		t.Errorf("empty Blob = %v", got)
	}
	if got := r.String(); got != "héllo, wörld" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestTruncatedInput(t *testing.T) {
	w := wire.NewWriter()
	w.String("some payload")
	full := w.Bytes()

	for cut := 0; cut < len(full); cut++ {
		r := wire.NewReader(full[:cut])
		_ = r.String()
		if r.Done() == nil {
			t.Fatalf("cut at %d: expected an error", cut)
		}
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	w := wire.NewWriter()
	w.Uvarint(7)
	w.Byte(0)
	r := wire.NewReader(w.Bytes())
	if got := r.Uvarint(); got != 7 {
		t.Fatalf("Uvarint = %d", got)
	}
	if err := r.Done(); err == nil {
		t.Fatal("Done should report trailing bytes")
	}
}

func TestHostileLengthPrefix(t *testing.T) {
	// A length prefix far beyond the input must fail cleanly rather than
	// allocate.
	w := wire.NewWriter()
	w.Uvarint(1 << 40)
	r := wire.NewReader(w.Bytes())
	if got := r.Blob(); got != nil {
		t.Fatalf("Blob on hostile input = %v", got)
	}
	if r.Err() == nil {
		t.Fatal("expected error")
	}
}

func TestStickyError(t *testing.T) {
	r := wire.NewReader(nil)
	_ = r.Byte() // fails
	if r.Err() == nil {
		t.Fatal("expected sticky error after reading past end")
	}
	// Every subsequent read must return zero values, not panic.
	if r.Uvarint() != 0 || r.Varint() != 0 || r.String() != "" || r.Blob() != nil || r.Bool() {
		t.Fatal("reads after error must return zero values")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(b bool, u uint64, v int64, blob []byte, s string) bool {
		w := wire.NewWriter()
		w.Bool(b)
		w.Uvarint(u)
		w.Varint(v)
		w.Blob(blob)
		w.String(s)
		r := wire.NewReader(w.Bytes())
		gb := r.Bool()
		gu := r.Uvarint()
		gv := r.Varint()
		gblob := r.Blob()
		gs := r.String()
		return r.Done() == nil && gb == b && gu == u && gv == v &&
			bytes.Equal(gblob, blob) && gs == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	// Arbitrary byte soup must never panic the reader.
	f := func(input []byte) bool {
		r := wire.NewReader(input)
		_ = r.Byte()
		_ = r.Uvarint()
		_ = r.Blob()
		_ = r.String()
		_ = r.Varint()
		_ = r.Bool()
		_ = r.Done()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestReflectionEnvelopeRoundTrip drives the codec by reflection over a
// struct with one field per primitive: the encoder and decoder are
// derived from the same field list, so a field can never be encoded
// without being decoded. Filled with distinct non-zero values, any
// asymmetry in the primitives themselves (value mangling, misaligned
// reads) surfaces as a field-level diff.
func TestReflectionEnvelopeRoundTrip(t *testing.T) {
	type envelope struct {
		Kind  uint8
		Flag  bool
		Seq   uint64
		Delta int64
		Body  []byte
		Name  string
	}
	var env envelope
	wiretest.Fill(&env)
	if z := wiretest.Unfilled(&env); len(z) != 0 {
		t.Fatalf("filler left fields zero: %v", z)
	}

	w := wire.NewWriter()
	ev := reflect.ValueOf(env)
	for i := 0; i < ev.NumField(); i++ {
		f := ev.Field(i)
		switch f.Kind() {
		case reflect.Uint8:
			w.Byte(byte(f.Uint()))
		case reflect.Bool:
			w.Bool(f.Bool())
		case reflect.Uint64:
			w.Uvarint(f.Uint())
		case reflect.Int64:
			w.Varint(f.Int())
		case reflect.Slice:
			w.Blob(f.Bytes())
		case reflect.String:
			w.String(f.String())
		default:
			t.Fatalf("field %s: unhandled kind %s", ev.Type().Field(i).Name, f.Kind())
		}
	}

	var got envelope
	r := wire.NewReader(w.Bytes())
	gv := reflect.ValueOf(&got).Elem()
	for i := 0; i < gv.NumField(); i++ {
		f := gv.Field(i)
		switch f.Kind() {
		case reflect.Uint8:
			f.SetUint(uint64(r.Byte()))
		case reflect.Bool:
			f.SetBool(r.Bool())
		case reflect.Uint64:
			f.SetUint(r.Uvarint())
		case reflect.Int64:
			f.SetInt(r.Varint())
		case reflect.Slice:
			f.SetBytes(r.Blob())
		case reflect.String:
			f.SetString(r.String())
		}
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("encode/decode asymmetry:\n%s", wiretest.Diff(env, got))
	}
}

func TestBlobIsACopy(t *testing.T) {
	w := wire.NewWriter()
	w.Blob([]byte("abc"))
	buf := w.Bytes()
	r := wire.NewReader(buf)
	got := r.Blob()
	buf[1] = 'X' // corrupt the underlying buffer
	if string(got) != "abc" {
		t.Fatalf("Blob aliases the input: %q", got)
	}
}

// Rest hands back the unread remainder in place, consumes it, and leaves no
// room to append over whatever follows it in the buffer.
func TestRestAliasesTheRemainder(t *testing.T) {
	buf := append(make([]byte, 0, 16), 'k', 'a', 'b', 'c')
	r := wire.NewReader(buf)
	r.Byte()
	rest := r.Rest()
	if string(rest) != "abc" || cap(rest) != len(rest) {
		t.Fatalf("Rest = %q (cap %d), want abc with no spare capacity", rest, cap(rest))
	}
	buf[1] = 'X'
	if string(rest) != "Xbc" {
		t.Fatalf("Rest copied the input: %q", rest)
	}
	if err := r.Done(); err != nil || len(r.Rest()) != 0 {
		t.Fatalf("after Rest: Done %v, a second Rest %q; want nil and empty", err, r.Rest())
	}
}
