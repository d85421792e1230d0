package obs

import (
	"fmt"
	"hash/fnv"
	"io"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end invocation. It is allocated by the
// invoking client and carried in the invocation-layer wire envelope, so
// every process touched by the call journals the stages it ran under the
// same identifier (flight.EvStage). Zero means "untraced".
type TraceID uint64

// String renders the canonical 16-hex-digit form.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// traceSeed spreads concurrently-started processes across the ID space;
// traceCtr makes IDs unique within a process.
var (
	traceSeed = uint64(time.Now().UnixNano()) * 0x9e3779b97f4a7c15
	traceCtr  atomic.Uint64
)

// NewTraceID allocates a fresh non-zero trace identifier.
func NewTraceID() TraceID {
	id := traceSeed + traceCtr.Add(1)*0xbf58476d1ce4e5b9
	if id == 0 {
		id = 1
	}
	return TraceID(id)
}

// DeriveTraceID deterministically derives a trace identifier from a
// scope and sequence number. Group-to-group invocations use this so every
// member of the client group — each of which multicasts its own copy of
// the call — stamps the same trace onto the same logical invocation.
func DeriveTraceID(scope string, n uint64) TraceID {
	h := fnv.New64a()
	_, _ = io.WriteString(h, scope)
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(n >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	id := h.Sum64()
	if id == 0 {
		id = 1
	}
	return TraceID(id)
}
