// Package wire is a small deterministic binary codec used for every
// message the group communication service and the mini-ORB put on the
// network. Writers append primitives to a growing buffer; readers consume
// them with a sticky error, so encode/decode code stays linear and checks
// one error at the end.
//
// Integers use unsigned varints; byte strings are length-prefixed. There
// is no reflection and no schema: each message type hand-writes its
// marshal/unmarshal, which keeps the format auditable and allocation-lean.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// ErrTruncated is reported when a reader runs out of bytes.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLarge is reported when a length prefix exceeds the remaining input
// (a corrupt or hostile frame).
var ErrTooLarge = errors.New("wire: length prefix exceeds input")

// Writer accumulates an encoded message.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with a small pre-allocated buffer.
func NewWriter() *Writer {
	return &Writer{buf: make([]byte, 0, 128)}
}

// writerPool recycles encode buffers across messages. Encoding is the
// single hottest allocation site in the system (every protocol message,
// invocation and reply passes through a writer), so the pool starts
// buffers big enough for a typical frame and lets them grow in place.
var writerPool = sync.Pool{
	New: func() any { return &Writer{buf: make([]byte, 0, 512)} },
}

// maxPooledCap bounds the buffers the pool retains: a rare giant frame
// (a flush cut, a state transfer) must not pin megabytes forever.
const maxPooledCap = 64 << 10

// GetWriter returns an empty pooled writer. The caller must hand it back
// with PutWriter once the encoded bytes have been consumed or copied out
// with Detach; after PutWriter the writer and anything returned by Bytes
// must not be touched again.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter recycles a writer obtained from GetWriter. Oversized buffers
// are dropped rather than pooled.
func PutWriter(w *Writer) {
	if w == nil || cap(w.buf) > maxPooledCap {
		return
	}
	writerPool.Put(w)
}

// Reset empties the writer, keeping its buffer capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the encoded message. The slice aliases the writer's
// buffer; do not keep writing afterwards, and never retain it across
// PutWriter — use Detach for bytes that outlive the writer.
func (w *Writer) Bytes() []byte { return w.buf }

// Detach returns an exact-size copy of the encoded message that is safe
// to retain after the writer is recycled. This is the one allocation a
// pooled encode pays.
func (w *Writer) Detach() []byte {
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	return out
}

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends a signed varint (zig-zag).
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Blob appends a length-prefixed byte string.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader consumes an encoded message with a sticky error.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset re-aims the reader at buf and clears its error, so a long-lived
// decoder can reuse one Reader across frames instead of allocating one
// per decode.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.err = nil
}

// Err returns the first decoding error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// Done returns nil only when decoding succeeded and the input was fully
// consumed; otherwise it describes the problem.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.pos)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	r.pos += n
	return v
}

// Blob reads a length-prefixed byte string. The result is a copy, safe to
// retain.
func (r *Reader) Blob() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail(ErrTooLarge)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.pos:r.pos+int(n)])
	r.pos += int(n)
	return out
}

// BlobRef reads a length-prefixed byte string without copying: the result
// aliases the reader's input buffer. Safe only where the decoded value
// does not outlive the frame it arrived in (transport frames are never
// reused); anything retained past the decode call must use Blob.
func (r *Reader) BlobRef() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail(ErrTooLarge)
		return nil
	}
	out := r.buf[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return out
}

// Rest consumes the unread remainder of the input without copying: the
// result aliases the reader's input buffer, as BlobRef's does. It is for a
// message whose last field runs to the end of the frame and so needs no
// length prefix.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	out := r.buf[r.pos:len(r.buf):len(r.buf)]
	r.pos = len(r.buf)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail(ErrTooLarge)
		return ""
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}
