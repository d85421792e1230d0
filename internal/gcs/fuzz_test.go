package gcs

import (
	"math/rand"
	"testing"
)

// FuzzDecodeMessage feeds arbitrary bytes to the GCS wire decoder: it must
// either return an error or a well-formed message, never panic. Run with
// `go test -fuzz=FuzzDecodeMessage ./internal/gcs`.
func FuzzDecodeMessage(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		f.Add(encodeMessage(randomData(r)))
	}
	f.Add(encodeMessage(&proposeMsg{Group: "g", NewSeq: 3, Proposer: "p"}))
	f.Add(encodeMessage(&batchMsg{Group: "g", Msgs: []*dataMsg{randomData(r), randomData(r)}}))
	f.Add(encodeMessage(&commitMsg{Group: "g", NewSeq: 3, Proposer: "p", Order: OrderSymmetric}))
	f.Add([]byte{})
	for _, bad := range impossibleCountFrames() {
		f.Add(bad.frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := decodeMessage(data)
		if err == nil && msg == nil {
			t.Fatal("nil message without error")
		}
		if err == nil {
			// Re-encoding a decoded message must not panic either.
			_ = encodeMessage(msg)
		}
	})
}
