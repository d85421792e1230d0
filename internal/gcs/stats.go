package gcs

import "fmt"

// Stats is a snapshot of one group's protocol counters and queue depths,
// for monitoring and tests. All counters are cumulative over the group's
// lifetime (they survive view changes).
type Stats struct {
	// AppSent / NullSent count this member's own multicasts.
	AppSent  uint64
	NullSent uint64
	// AppDelivered counts application messages handed to the consumer.
	AppDelivered uint64
	// Resent counts retransmitted messages.
	Resent uint64
	// BatchesSent counts batch envelopes flushed to the wire (cfg.Batch);
	// BatchedMsgs counts the data messages they carried. Their ratio is
	// the realised batching factor.
	BatchesSent uint64
	BatchedMsgs uint64
	// BytesSent / BytesReceived count the wire bytes of this group's
	// protocol traffic (data, acks, flush and membership messages).
	BytesSent     uint64
	BytesReceived uint64
	// ViewsInstalled counts view installations (including the first).
	ViewsInstalled uint64
	// CutDelivered counts messages force-delivered by view-change cuts.
	CutDelivered uint64
	// Pending, StoreSize and OrderTable (live sequencer decisions) are instantaneous depths.
	Pending    int
	StoreSize  int
	OrderTable int
	// Members is the current view size.
	Members int
}

// String renders a compact one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("sent=%d nulls=%d delivered=%d resent=%d batches=%d batched=%d bytesOut=%d bytesIn=%d views=%d cut=%d pending=%d store=%d order=%d members=%d",
		s.AppSent, s.NullSent, s.AppDelivered, s.Resent, s.BatchesSent, s.BatchedMsgs,
		s.BytesSent, s.BytesReceived,
		s.ViewsInstalled, s.CutDelivered, s.Pending, s.StoreSize, s.OrderTable, s.Members)
}

// Plus returns the field-wise sum of two snapshots (instantaneous depths
// and view size add too, which is what an aggregate over one server's
// groups wants: total queued work across its groups).
func (s Stats) Plus(t Stats) Stats {
	return Stats{
		AppSent:        s.AppSent + t.AppSent,
		NullSent:       s.NullSent + t.NullSent,
		AppDelivered:   s.AppDelivered + t.AppDelivered,
		Resent:         s.Resent + t.Resent,
		BatchesSent:    s.BatchesSent + t.BatchesSent,
		BatchedMsgs:    s.BatchedMsgs + t.BatchedMsgs,
		BytesSent:      s.BytesSent + t.BytesSent,
		BytesReceived:  s.BytesReceived + t.BytesReceived,
		ViewsInstalled: s.ViewsInstalled + t.ViewsInstalled,
		CutDelivered:   s.CutDelivered + t.CutDelivered,
		Pending:        s.Pending + t.Pending,
		StoreSize:      s.StoreSize + t.StoreSize,
		OrderTable:     s.OrderTable + t.OrderTable,
		Members:        s.Members + t.Members,
	}
}

// Stats returns the group's current counters.
func (g *Group) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.stats
	s.Pending = g.npending
	s.StoreSize = g.nstore
	s.OrderTable = g.ring.live
	s.Members = len(g.view.Members)
	return s
}
