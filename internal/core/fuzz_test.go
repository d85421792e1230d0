package core

import (
	"testing"

	"newtop/internal/ids"
	"newtop/internal/wire/wiretest"
)

func callIDSeed() ids.CallID { return ids.CallID{Client: "c", Number: 7} }

// FuzzDecodePayload feeds arbitrary bytes to the invocation-layer payload
// decoder. Run with `go test -fuzz=FuzzDecodePayload ./internal/core`.
func FuzzDecodePayload(f *testing.F) {
	f.Add(encodeRequest(&invRequest{Call: callIDSeed(), Method: "m", Args: []byte("a"), Style: Open}))
	f.Add(encodeReplyMsg(replyMsg{To: toRM, Group: []byte("sg"), Reply: invReply{Call: callIDSeed(), Server: "s", Payload: []byte("p")}}))
	f.Add(encodeReplyMsg(replyMsg{To: toOpen, Group: []byte("cs"), Set: &invReplySet{Call: callIDSeed()}}))
	f.Add(encodeReplySet(&invReplySet{Call: callIDSeed()}))
	f.Add(encodeHello())
	f.Add([]byte{})

	// Fully-populated envelopes, so mutation starts from inputs where
	// every field is present and non-zero: fuzzing from sparse seeds
	// tends to never flip the later fields' presence/length bytes.
	fullReq := &invRequest{}
	wiretest.Fill(fullReq)
	f.Add(encodeRequest(fullReq))
	var fullRep invReply
	wiretest.Fill(&fullRep)
	f.Add(encodeReplyMsg(replyMsg{To: toClosed, Group: []byte("sg"), Reply: fullRep}))
	fullSet := &invReplySet{}
	wiretest.Fill(fullSet)
	f.Add(encodeReplySet(fullSet))
	f.Add(encodeReplyMsg(replyMsg{To: toOpen, Group: []byte("cs"), Set: fullSet}))
	fullBind := &bindRequest{}
	wiretest.Fill(fullBind, bindLocalFields...)
	f.Add(encodeBindRequest(fullBind))
	fullSnap := &stateSnapshot{}
	wiretest.Fill(fullSnap)
	f.Add(encodeStateSnapshot(fullSnap))
	fullRef := GroupRef{}
	wiretest.Fill(&fullRef)
	f.Add(fullRef.Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodePayload(data)
		_, _ = decodeReplyMsg(data)
		_, _ = decodeBindRequest(data)
		_, _ = decodeStateSnapshot(data)
		_, _ = DecodeGroupRef(data)
	})
}
