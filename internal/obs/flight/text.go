package flight

import (
	"fmt"
	"io"
	"time"
)

// WriteText renders events as the /journal text format, one line per
// event, with IDs resolved through the meta name tables:
//
//	+1.234567s  n01 peer/v2  ingest       sender=n02 seq=7 lamport=31
//
// The offset column is the event's journal-epoch timestamp, so lines
// from different recorders in one process align.
func WriteText(w io.Writer, events []Event, m *Meta) {
	for _, e := range events {
		fmt.Fprintln(w, e.Format(m))
	}
}

// Format renders one event line (without trailing newline).
func (e Event) Format(m *Meta) string {
	scope := "-"
	if e.Group != 0 {
		scope = fmt.Sprintf("%s/v%d", m.GroupName(e.Group), e.View)
	}
	return fmt.Sprintf("%+12v  %-8s %-12s %-13s %s",
		time.Duration(e.At).Round(time.Microsecond),
		m.ProcName(e.Proc), scope, e.Type, e.detail(m))
}

// detail renders the per-type payload fields.
func (e Event) detail(m *Meta) string {
	member := func() string { return m.MemberName(e.Group, e.View, e.Sender) }
	peer := func() string {
		if e.Sender < 0 {
			return "-"
		}
		return m.ProcName(uint16(e.Sender))
	}
	null := ""
	if e.B == 1 {
		null = " null"
	}
	switch e.Type {
	case EvMulticast:
		return fmt.Sprintf("sender=%s seq=%d lamport=%d%s", member(), e.MsgSeq, e.A, null)
	case EvBatchFlush:
		return fmt.Sprintf("sender=%s first=%d count=%d", member(), e.MsgSeq, e.A)
	case EvIngest:
		return fmt.Sprintf("sender=%s seq=%d lamport=%d%s", member(), e.MsgSeq, e.A, null)
	case EvStash, EvDupDrop:
		return fmt.Sprintf("sender=%s seq=%d", member(), e.MsgSeq)
	case EvStaleDrop:
		return fmt.Sprintf("seq=%d", e.MsgSeq)
	case EvAssign:
		return fmt.Sprintf("sender=%s seq=%d global=%d", member(), e.MsgSeq, e.A)
	case EvDeliver:
		if e.B > 0 {
			return fmt.Sprintf("sender=%s seq=%d lamport=%d global=%d", member(), e.MsgSeq, e.A, e.B-1)
		}
		return fmt.Sprintf("sender=%s seq=%d lamport=%d", member(), e.MsgSeq, e.A)
	case EvCutDeliver:
		return fmt.Sprintf("sender=%s seq=%d", member(), e.MsgSeq)
	case EvStable:
		return fmt.Sprintf("sender=%s floor=%d", member(), e.MsgSeq)
	case EvResend:
		return fmt.Sprintf("to=%s seqs=%d-%d", member(), e.MsgSeq, e.A)
	case EvFlushPropose:
		return fmt.Sprintf("next=v%d members=%d", e.View, e.A)
	case EvFlushAck:
		return fmt.Sprintf("next=v%d unstable=%d", e.View, e.A)
	case EvFlushCommit:
		return fmt.Sprintf("next=v%d cut=%d", e.View, e.A)
	case EvViewInstall:
		return fmt.Sprintf("members=%d order=%d", e.A, e.B)
	case EvTCPFlush:
		return fmt.Sprintf("peer=%s frames=%d bytes=%d", peer(), e.A, e.B)
	case EvTCPDropFull:
		return fmt.Sprintf("peer=%s", peer())
	case EvTCPDropConn:
		return fmt.Sprintf("peer=%s lost=%d", peer(), e.A)
	case EvTCPConnect:
		if e.B == 1 {
			return fmt.Sprintf("peer=%s dialed", peer())
		}
		return fmt.Sprintf("peer=%s accepted", peer())
	case EvDispatch:
		return fmt.Sprintf("sender=%s seq=%d dur=%s", member(), e.MsgSeq, rd(time.Duration(e.B)))
	case EvCallStart:
		return fmt.Sprintf("trace=%016x", e.MsgSeq)
	case EvStage:
		st, detail := e.Stage()
		return fmt.Sprintf("trace=%016x %s dur=%s%s", e.MsgSeq, st, rd(time.Duration(e.B)), st.note(detail))
	}
	return fmt.Sprintf("msg=%d a=%d b=%d", e.MsgSeq, e.A, e.B)
}
