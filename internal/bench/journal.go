package bench

import (
	"fmt"

	"newtop/internal/obs"
	"newtop/internal/obs/flight"
)

// EnableFlightJournal swaps the process-wide flight recorder for a ring
// big enough to hold a whole measured point, so the per-stage latency
// decomposition covers every message of a run instead of the tail.
// newtop-bench calls this once at startup, before any node interns IDs
// against the default recorder. capacity <= 0 selects 1<<17 events.
func EnableFlightJournal(capacity int) {
	if capacity <= 0 {
		capacity = 1 << 17
	}
	obs.Default().Flight = flight.New(capacity)
}

// journalRun brackets one measured run's slice of a journal: open before the
// run, with no call outstanding, and finish after it, every call awaited, to
// analyze only that run's events.
type journalRun struct {
	rec   *flight.Recorder
	start uint64
}

func beginJournal() *journalRun { return beginJournalOf(obs.Default().Flight) }

// beginJournalOf brackets a run that journals into a domain of its own.
func beginJournalOf(rec *flight.Recorder) *journalRun {
	return &journalRun{rec: rec, start: rec.Cursor()}
}

// finish decomposes the run's journal window into per-stage latency and,
// when check is set, verifies it: any stall diagnosis, delivery-order
// violation, leased read served past its staleness bound or breach of call
// conservation becomes an error (ci.sh's journal-invariants stage runs the
// quick hotpath bench with check on and fails on findings). Gap checking and
// the launch a completion belongs to are strict only when the ring kept every
// event of the window.
func (j *journalRun) finish(label string, check bool) (flight.Decomposition, error) {
	return j.finishWith(label, check, flight.StallConfig{})
}

// finishWith is finish with an explicit stall-detector tuning: the shards
// experiment runs at the evaluation time scale (40ms ticks, 2ms simulated
// service cost, deep pipelines), where stability legitimately trails
// ingest by around a window's worth of service time — the hotpath-scale
// default MinAge would misread that queueing as a protocol stall.
func (j *journalRun) finishWith(label string, check bool, stallCfg flight.StallConfig) (flight.Decomposition, error) {
	events, dropped := j.rec.Since(j.start)
	d := flight.Decompose(flight.Timelines(events))
	if !check {
		return d, nil
	}
	m := j.rec.Meta()
	var findings []string
	for _, s := range flight.DetectStalls(events, m, stallCfg) {
		findings = append(findings, "stall: "+s.String())
	}
	for _, v := range flight.CheckOrder(events, m, dropped == 0) {
		findings = append(findings, "order violation: "+v)
	}
	for _, l := range flight.CheckLeases(events) {
		findings = append(findings, "lease violation: "+l)
	}
	inFlight, calls := flight.CheckCalls(events, dropped == 0)
	for _, c := range calls {
		findings = append(findings, "call conservation: "+c)
	}
	if inFlight > 0 {
		findings = append(findings, fmt.Sprintf("call conservation: %d calls launched in the window never completed", inFlight))
	}
	if len(findings) > 0 {
		msg := fmt.Sprintf("journal check %s: %d findings over %d events", label, len(findings), len(events))
		for _, f := range findings {
			msg += "\n  " + f
		}
		return d, fmt.Errorf("%s", msg)
	}
	return d, nil
}

// addStageMetrics records the decomposition under machine-readable keys
// (<prefix>_stage_<stage>_{p50,p95}_ms) so BENCH_<id>.json tracks the
// per-stage latency budget across revisions.
func addStageMetrics(res *Result, prefix string, d flight.Decomposition) {
	for name, st := range map[string]flight.Stage{
		"queue": d.Queue, "wire": d.Wire, "order": d.Order, "spread": d.Spread,
	} {
		res.Metrics[prefix+"_stage_"+name+"_p50_ms"] = ms(st.P50)
		res.Metrics[prefix+"_stage_"+name+"_p95_ms"] = ms(st.P95)
	}
}

// stageRows renders the decomposition as table rows for one ordering.
func stageRows(ordering string, d flight.Decomposition) [][]string {
	rows := make([][]string, 0, 4)
	for _, st := range d.Stages() {
		rows = append(rows, []string{
			ordering, st.Name, fmt.Sprintf("%d", st.Count),
			fmtMS(st.P50), fmtMS(st.P95), fmtMS(st.Mean), fmtMS(st.Max),
		})
	}
	return rows
}

// decompositionTable is the decomposition table shared by hotpath and tcpnet.
func decompositionTable() Table {
	return Table{
		Title:  "per-stage latency decomposition (flight journal)",
		Header: []string{"ordering", "stage", "samples", "p50 (ms)", "p95 (ms)", "mean (ms)", "max (ms)"},
	}
}
