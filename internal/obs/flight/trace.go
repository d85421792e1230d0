package flight

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// CallStage names one stage of an invocation, as journalled by the process
// that ran it (EvStage). The cross-process picture of a call is the merge of
// the journals, joined on the wire-carried trace ID.
type CallStage uint8

// The stages, in the order a call passes through them.
const (
	// StClientInvoke: launch to completion at the client. Detail: reply
	// mode | style<<4 (1 closed, 2 open, 3 group-to-group), StageFailed
	// when the call ended in an error.
	StClientInvoke CallStage = iota + 1
	// StClientRead: one Read at the client, escalation included. Detail:
	// the consistency asked for.
	StClientRead
	// StRMReceive: the request manager took the request up (a marker,
	// duration 0). Detail: reply mode.
	StRMReceive
	// StRMForward: the multicast of the request in the server group.
	StRMForward
	// StRMCollect: forward to settled reply quorum. Detail: reply count.
	StRMCollect
	// StRMReply: the answer of the reply set to the client — one ORB
	// one-way, or in a client monitor group a multicast (it precedes
	// rm.forward under asynchronous forwarding).
	StRMReply
	// StReplicaExecute: one servant execution of a call.
	StReplicaExecute
	// StReplicaRead: one read served outside the order. Detail: the
	// consistency it was served at.
	StReplicaRead
)

// StageFailed is the detail bit of a client stage that ended in an error.
const StageFailed uint64 = 1 << 8

// stages gives each stage its name, its fixed depth in the rendered tree
// and the label of its detail ("" = none to show). It spans every value a
// journalled stage code can take, so lookups need no bounds check.
var stages = [256]struct {
	name   string
	depth  int
	detail string
}{
	StClientInvoke:   {"client.invoke", 0, "mode"},
	StClientRead:     {"client.read", 0, "consistency"},
	StRMReceive:      {"rm.receive", 1, "mode"},
	StRMForward:      {"rm.forward", 2, ""},
	StRMCollect:      {"rm.collect", 2, "replies"},
	StRMReply:        {"rm.reply", 2, ""},
	StReplicaExecute: {"replica.execute", 3, ""},
	StReplicaRead:    {"replica.read", 3, "consistency"},
}

// String returns the stage's name.
func (s CallStage) String() string {
	if name := stages[s].name; name != "" {
		return name
	}
	return "stage?"
}

// note renders a stage's detail for the journal and trace views.
func (s CallStage) note(detail uint64) string {
	switch {
	case stages[s].detail == "":
		return ""
	case s != StClientInvoke:
		return fmt.Sprintf(" %s=%d", stages[s].detail, detail)
	case detail&StageFailed != 0:
		return fmt.Sprintf(" failed mode=%d style=%d", detail&0xf, detail>>4&0xf)
	default:
		return fmt.Sprintf(" mode=%d style=%d", detail&0xf, detail>>4&0xf)
	}
}

// StageWord packs an EvStage's A field.
func StageWord(s CallStage, detail uint64) uint64 { return uint64(s) | detail<<8 }

// Stage unpacks an EvStage's A field.
func (e Event) Stage() (CallStage, uint64) { return CallStage(e.A), e.A >> 8 }

// Trace is one invocation as a journal window shows it: its stage events,
// ordered by the time each stage began.
type Trace struct {
	ID     uint64
	Stages []Event
	// Partial marks a trace whose beginning is not in the window — a
	// process completed a call it shows no launch of, or managed a request
	// it shows no receipt of — as happens when the ring wrapped mid-call.
	Partial bool
}

// stageStart is when the stage an EvStage records began.
func stageStart(e Event) int64 { return e.At - int64(e.B) }

// procTrace keys one process's part in one trace.
type procTrace struct {
	proc  uint16
	trace uint64
}

// Traces groups a window's stage events by trace ID, newest trace first.
func Traces(events []Event) []Trace {
	idx := make(map[uint64]int)
	rooted := make(map[procTrace]bool) // launch (client) or receipt (manager) seen
	var out []Trace
	for _, e := range events {
		k := procTrace{e.Proc, e.MsgSeq}
		if e.Type == EvCallStart {
			rooted[k] = true
		}
		if e.Type != EvStage {
			continue
		}
		i, ok := idx[e.MsgSeq]
		if !ok {
			i = len(out)
			idx[e.MsgSeq] = i
			out = append(out, Trace{ID: e.MsgSeq})
		}
		out[i].Stages = append(out[i].Stages, e)
		switch st, _ := e.Stage(); st {
		case StRMReceive:
			rooted[k] = true
		case StClientInvoke, StRMForward, StRMCollect, StRMReply:
			if !rooted[k] {
				out[i].Partial = true
			}
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	for _, tr := range out {
		st := tr.Stages // shares out's backing arrays
		sort.SliceStable(st, func(i, j int) bool { return stageStart(st[i]) < stageStart(st[j]) })
	}
	return out
}

// WriteText renders the trace as the indented tree served at /traces: one
// line per stage, offset from the first stage's start, indented by depth.
func (tr Trace) WriteText(w io.Writer, m *Meta) {
	partial := ""
	if tr.Partial {
		partial = "  partial"
	}
	fmt.Fprintf(w, "trace %016x  stages=%d%s\n", tr.ID, len(tr.Stages), partial)
	for _, e := range tr.Stages {
		st, detail := e.Stage()
		fmt.Fprintf(w, "  %8s  %s%-16s  proc=%s  dur=%s%s\n",
			"+"+rd(time.Duration(stageStart(e)-stageStart(tr.Stages[0]))),
			strings.Repeat("  ", stages[st].depth), st, m.ProcName(e.Proc), rd(time.Duration(e.B)), st.note(detail))
	}
}

// CheckCalls verifies call conservation over a journal window, per process
// and trace: launches (EvCallStart) = completions (client.invoke stage
// events) + calls still in flight at the window's end. It returns that last
// term and one line per completion that has no launch left to complete — a
// call completed twice. complete says the window holds everything recorded
// since no call was outstanding; in any other window the launch may simply
// lie outside it, and such completions are let pass.
func CheckCalls(events []Event, complete bool) (inFlight int, problems []string) {
	open := make(map[procTrace]int)
	for _, e := range events {
		k := procTrace{e.Proc, e.MsgSeq}
		switch {
		case e.Type == EvCallStart:
			open[k]++
			inFlight++
		case e.Type != EvStage || CallStage(e.A) != StClientInvoke:
		case open[k] > 0:
			open[k]--
			inFlight--
		case complete:
			problems = append(problems, fmt.Sprintf(
				"call completed more often than launched: proc=%d trace=%016x", e.Proc, e.MsgSeq))
		}
	}
	return inFlight, problems
}
