package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"newtop/internal/obs"
	"newtop/internal/obs/flight"
)

// journalCap is the flight-journal ring the traced pass swaps in before it
// builds a world. It holds the last second or two of a saturated window —
// enough messages for stable stage medians while keeping the analysis
// under a second; gcs.journal_dropped reports what fell off the front.
const journalCap = 1 << 19

// edge is one reading of every cumulative counter, taken at a window
// boundary; metrics are differences of two edges.
type edge struct {
	proc      procSample
	reg       obs.Snapshot
	net       netTotals
	cursor    uint64
	execNanos uint64
	execs     uint64
}

// passConfig is one timed pass: warm-up, measured window, plain or traced.
type passConfig struct {
	seed    int64
	clients int
	warm    time.Duration
	window  time.Duration
	traced  bool
}

// passResult is everything one pass measured.
type passResult struct {
	wl      *workload
	cfg     passConfig
	setup   time.Duration
	lat     []int64 // sorted, ns
	wlat    []int64 // sorted, ns; the ordered operations
	late    []int64 // sorted, ns
	spans   []int64 // sorted, ns
	slices  []uint32
	last    time.Time // last completion inside the window
	start   time.Time
	before  edge
	after   edge
	marks   []procSample // process counters at every slice boundary
	series  sliceSeries  // the window cut into one-second slices
	peak    int          // goroutines, traced pass
	writes  uint64
	putExec uint64

	attempted, failed uint64
	problems          []string // correctness findings; empty means correct

	dec     flight.Decomposition
	dropped uint64
}

func (r *passResult) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// observeWindow sleeps through the plan on the calling goroutine, reading
// the counters at both edges of the measured window while the generators
// run, and the process's CPU and allocation counters at every one-second
// slice boundary in between (marks[i] opens slice i). The traced pass also
// samples the goroutine count.
func observeWindow(p plan, take func() edge) (before, after edge, marks []procSample, peak int) {
	sleepUntil(p.start)
	before = take()
	marks = append(marks, before.proc)
	for next := p.start.Add(time.Second); !next.After(p.end()); next = next.Add(time.Second) {
		for p.traced && time.Until(next) > 100*time.Millisecond {
			time.Sleep(100 * time.Millisecond)
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		}
		sleepUntil(next)
		marks = append(marks, sampleProc())
	}
	sleepUntil(p.end())
	after = take()
	return before, after, marks, peak
}

// runPass builds the workload's world, drives one warm-up plus measured
// window over it, checks the outcome and tears the world down. The error
// return is for a world that could not be built or driven at all;
// wrong answers and broken invariants are recorded in the result.
func runPass(ctx context.Context, wl *workload, cfg passConfig) (*passResult, error) {
	if cfg.traced {
		// Layers capture the journal at construction, so the ring must be
		// in place before the world is built.
		obs.Default().Flight = flight.New(journalCap)
	}
	res := &passResult{wl: wl, cfg: cfg}
	var recs []*recorder
	if wl.peer {
		w, err := buildPeerWorld(ctx, cfg.seed, cfg.traced)
		if err != nil {
			return nil, err
		}
		defer w.close()
		recs = runPeerPass(ctx, w, res)
	} else {
		w, err := buildWorld(ctx, wl, cfg.clients, cfg.seed, cfg.traced)
		if err != nil {
			return nil, err
		}
		defer w.close()
		var rerr error
		if recs, rerr = runCorePass(ctx, w, res); rerr != nil {
			return nil, rerr
		}
	}
	res.collect(recs)
	if cfg.traced {
		res.analyseJournal()
	}
	return res, nil
}

func runCorePass(ctx context.Context, w *world, res *passResult) ([]*recorder, error) {
	wl, cfg := w.spec, res.cfg
	res.setup = w.setup
	for _, cl := range w.clients {
		if err := cl.warm(ctx, wl, warmupCalls-1); err != nil {
			return nil, err
		}
	}
	launched := time.Now()
	p := plan{start: launched.Add(cfg.warm), window: cfg.window, traced: cfg.traced}
	res.start = p.start
	var wg sync.WaitGroup
	recs := make([]*recorder, len(w.clients))
	for i, cl := range w.clients {
		cl.rec = newRecorder(p.start, cfg.window)
		recs[i] = cl.rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			wl.generate(ctx, cl, p, len(w.clients), launched)
		}()
	}
	take := func() edge {
		return edge{
			proc: sampleProc(), reg: obs.Default().Reg.Snapshot(), net: w.net.totals(),
			cursor: obs.Default().Flight.Cursor(), execNanos: w.execs.nanos.Load(),
			execs: w.execs.puts.Load() + w.execs.other.Load(),
		}
	}
	res.before, res.after, res.marks, res.peak = observeWindow(p, take)
	wg.Wait()

	if err := w.quiesce(ctx); err != nil {
		res.fail("%v", err)
	}
	if err := w.verify(); err != nil {
		res.fail("%v", err)
	}
	res.writes, res.putExec = w.writes(), w.execs.puts.Load()
	return recs, nil
}

func runPeerPass(ctx context.Context, w *peerWorld, res *passResult) []*recorder {
	cfg := res.cfg
	res.setup = w.setup
	sentBefore, _ := w.sent() // the set-up multicast
	p := plan{start: time.Now().Add(cfg.warm), window: cfg.window, traced: cfg.traced}
	res.start = p.start
	recs := make([]*recorder, len(w.members))
	for i, m := range w.members {
		m.rec = newRecorder(p.start, cfg.window)
		recs[i] = m.rec
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.run(ctx, p)
	}()
	take := func() edge {
		return edge{proc: sampleProc(), reg: obs.Default().Reg.Snapshot(), net: w.net.totals(), cursor: obs.Default().Flight.Cursor()}
	}
	res.before, res.after, res.marks, res.peak = observeWindow(p, take)
	wg.Wait()

	if err := w.drain(ctx); err != nil {
		res.fail("%v", err)
	}
	if err := w.verify(); err != nil {
		res.fail("%v", err)
	}
	// A multicast is attempted when issued and complete when its last
	// member delivered it; the recorders only saw the completions.
	sent, errs := w.sent()
	var completed uint64
	for _, r := range recs {
		completed += r.attempted
		r.attempted, r.failed = 0, 0
	}
	recs[0].attempted = sent - sentBefore + errs
	recs[0].failed = recs[0].attempted - completed
	return recs
}

// collect merges the generators' recorders.
func (r *passResult) collect(recs []*recorder) {
	var lat, wlat, late, spans [][]int64
	r.slices = make([]uint32, len(recs[0].slices))
	for _, rec := range recs {
		lat = append(lat, rec.lat)
		wlat = append(wlat, rec.wlat)
		late = append(late, rec.late)
		spans = append(spans, rec.spans)
		for i, c := range rec.slices {
			r.slices[i] += c
		}
		if rec.lastDone.After(r.last) {
			r.last = rec.lastDone
		}
		r.attempted += rec.attempted
		r.failed += rec.failed
	}
	r.lat, r.late, r.spans = sortedCopy(lat...), sortedCopy(late...), sortedCopy(spans...)
	r.wlat = r.lat
	if r.wl.readsPerWrite > 0 {
		r.wlat = sortedCopy(wlat...)
	}
	r.series = r.cutSlices(recs)
	if r.failed > 0 {
		r.fail("%d of %d operations failed or returned a wrong answer", r.failed, r.attempted)
	}
	if len(r.lat) == 0 {
		r.fail("no operation completed inside the measured window")
	}
	if d := counterDelta(r.before, r.after, "gcs_views_installed"); d != 0 {
		r.fail("%.0f view installs inside the measured window", d)
	}
}

// analyseJournal runs the journal's own invariant checks over everything
// the ring still holds of this world's life, and decomposes the measured
// window's part of it into the gcs stage latencies. The gap check is strict
// only when the journal is complete from the world's first event: a stream
// joined midway has lost the null ingests that explain its first gaps.
func (r *passResult) analyseJournal() {
	rec := obs.Default().Flight
	events, lost := rec.Since(0)
	meta := rec.Meta()
	for _, v := range flight.CheckOrder(events, meta, lost == 0) {
		r.fail("order violation: %s", v)
	}
	for _, s := range flight.DetectStalls(events, meta, flight.StallConfig{}) {
		r.fail("stall: %s", s)
	}
	for _, l := range flight.CheckLeases(events) {
		r.fail("lease: %s", l)
	}
	first := sort.Search(len(events), func(i int) bool { return events[i].Seq > r.before.cursor })
	if first == 0 && len(events) > 0 {
		r.dropped = events[0].Seq - (r.before.cursor + 1) // the window's oldest events fell off the ring
	}
	r.dec = flight.Decompose(flight.Timelines(events[first:]))
}

func counterDelta(before, after edge, name string) float64 {
	return float64(after.reg.Counters[name]) - float64(before.reg.Counters[name])
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// ops is the number of operations completed inside the measured window.
func (r *passResult) ops() float64 { return float64(len(r.lat)) }

// opsPerS is the throughput estimate: the best fifth of the one-second
// slices (see bestSlices). The paced workload's slices all hold exactly its
// rate, so it reports what was achieved up to the last completion instead.
func (r *passResult) opsPerS() float64 {
	switch {
	case len(r.lat) == 0:
		return 0
	case r.wl.rate > 0:
		return r.ops() / r.last.Sub(r.start).Seconds()
	default:
		return bestSlices(r.series.ops, true)
	}
}

// endToEnd computes the user-visible metrics; setup is the median over the
// run's repeated set-ups. Latencies are per-slice values through bestSlices
// like the throughput; allocations per operation do not depend on how fast
// the host happens to be and are taken over the whole window.
func (r *passResult) endToEnd(setup time.Duration) map[string]float64 {
	s := r.series
	return map[string]float64{
		"ops_per_s":     r.opsPerS(),
		"p50_ms":        bestSlices(s.p50, false),
		"p90_ms":        bestSlices(s.p90, false),
		"write_p50_ms":  bestSlices(s.wp50, false),
		"allocs_per_op": ratio(float64(r.after.proc.allocObjs-r.before.proc.allocObjs), r.ops()),
		"setup_s":       setup.Seconds(),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// inSitu computes the per-layer metrics observed while the workload ran.
// plainOpsPerS is the same workload's untraced throughput, for the tracing
// overhead.
func (r *passResult) inSitu(plainOpsPerS float64) map[string]float64 {
	b, a := r.before, r.after
	ops := r.ops()
	if ops == 0 {
		ops = 1
	}
	cnt := func(name string) float64 { return counterDelta(b, a, name) }
	cpuUser := float64(a.proc.cpuUser - b.proc.cpuUser)
	cpuSys := float64(a.proc.cpuSys - b.proc.cpuSys)
	frames := float64(a.net.frames - b.net.frames)
	// The registry's histograms are cumulative (and bucketed in powers of
	// two): report a median only for one the window added samples to.
	hist := func(name string) float64 {
		if a.reg.Hists[name].Count == b.reg.Hists[name].Count {
			return 0
		}
		return us(int64(a.reg.Hists[name].P50))
	}
	stage := func(s flight.Stage) float64 { return us(int64(s.P50)) }
	servantNs := ratio(float64(a.execNanos-b.execNanos), float64(a.execs-b.execs))

	m := map[string]float64{
		"tcpnet.frames_per_op":     frames / ops,
		"tcpnet.bytes_per_op":      float64(a.net.bytes-b.net.bytes) / ops,
		"tcpnet.send_ns_per_frame": ratio(float64(a.net.tapNanos-b.net.tapNanos), float64(a.net.tapFrames-b.net.tapFrames)),
		"tcpnet.frames_per_flush":  ratio(frames, float64(a.net.flushes-b.net.flushes)),
		"tcpnet.sendq_highwater":   float64(a.net.sendqHigh),
		"tcpnet.drops":             float64(a.net.drops - b.net.drops),

		"gcs.app_msgs_per_op":      cnt("gcs_app_sent") / ops,
		"gcs.null_msgs_per_op":     cnt("gcs_nulls_sent") / ops,
		"gcs.batch_size":           ratio(cnt("gcs_batched_msgs"), cnt("gcs_batches_sent")),
		"gcs.resent":               cnt("gcs_resent"),
		"gcs.views_installed":      cnt("gcs_views_installed"),
		"gcs.queue_wait_us_p50":    stage(r.dec.Queue),
		"gcs.wire_us_p50":          stage(r.dec.Wire),
		"gcs.order_wait_us_p50":    stage(r.dec.Order),
		"gcs.spread_us_p50":        stage(r.dec.Spread),
		"gcs.dispatch_wait_us_p50": stage(r.dec.Dispatch),
		"gcs.lease_rejects":        cnt("gcs_lease_rejects"),
		"gcs.local_reads_per_op":   cnt("gcs_local_reads") / ops,
		"gcs.journal_dropped":      float64(r.dropped),

		"orb.requests_per_op":      cnt("orb_requests") / ops,
		"orb.dispatch_us_p50":      hist("orb_dispatch_latency"),
		"core.exec_us_p50":         hist("core_exec_latency"),
		"core.read_us_p50":         hist("core_read_latency"),
		"core.rm_relays_per_op":    cnt("core_rm_relays") / ops,
		"core.reads_refused":       cnt("core_reads_refused"),
		"core.invoke_async_us_p50": us(percentile(r.spans, 50)),

		"shard.exec_ns_per_op":  servantNs,
		"shard.execs_per_write": ratio(float64(r.putExec), float64(r.writes)),

		"go.alloc_bytes_per_op": float64(a.proc.allocBytes-b.proc.allocBytes) / ops,
		"go.gc_cpu_frac":        ratio((a.proc.gcCPU-b.proc.gcCPU)*1e9, cpuUser+cpuSys),
		"go.goroutines_peak":    float64(r.peak),
		"proc.cpu_us_per_op":    bestSlices(r.series.cpu, false),
		"proc.ctxsw_per_op":     float64(a.proc.ctxsw-b.proc.ctxsw) / ops,
		"proc.cpu_util":         (cpuUser + cpuSys) / float64(r.cfg.window),
		"proc.sys_cpu_frac":     ratio(cpuSys, cpuUser+cpuSys),
		"gen.late_us_p90":       us(percentile(r.late, 90)),
		"tail.p99_ms":           ms(percentile(r.lat, 99)),
		"tail.p999_ms":          ms(percentile(r.lat, 99.9)),
		"trace.overhead_frac":   1 - ratio(r.opsPerS(), plainOpsPerS),
	}
	// What the blocking path's known stages leave unexplained: the call's
	// median minus one median of each gcs stage per ordered hop, the orb
	// dispatch per point-to-point hop and the servant itself. Medians do
	// not add exactly, so this is an estimate; it may go slightly negative.
	hop := m["gcs.queue_wait_us_p50"] + m["gcs.wire_us_p50"] + m["gcs.order_wait_us_p50"] + m["gcs.dispatch_wait_us_p50"]
	m["core.unattributed_us_p50"] = us(percentile(r.lat, 50)) - float64(r.wl.gcsHops)*hop -
		float64(r.wl.orbHops)*m["orb.dispatch_us_p50"] - servantNs/1e3
	return m
}

// sliceSeries is the window cut into one-second slices: per slice, the
// completions, the latency percentiles of the operations that completed in
// it, and the process CPU spent per completion. A window shorter than one
// slice is a single slice.
type sliceSeries struct {
	ops, p50, p90, wp50, cpu []float64
}

func (s *sliceSeries) add(seconds float64, lat, wlat []int64, a, b procSample) {
	if len(lat) == 0 {
		return
	}
	cpu := (b.cpuUser + b.cpuSys) - (a.cpuUser + a.cpuSys)
	s.ops = append(s.ops, float64(len(lat))/seconds)
	s.p50 = append(s.p50, ms(percentile(lat, 50)))
	s.p90 = append(s.p90, ms(percentile(lat, 90)))
	s.wp50 = append(s.wp50, ms(percentile(wlat, 50)))
	s.cpu = append(s.cpu, float64(cpu)/1e3/float64(len(lat)))
}

// cutSlices builds the series from the generators' recorders, whose samples
// are in completion order: slice i's samples are the slices[i] entries that
// follow those of the slices before it.
func (r *passResult) cutSlices(recs []*recorder) sliceSeries {
	var s sliceSeries
	if len(r.slices) == 0 {
		s.add(r.cfg.window.Seconds(), r.lat, r.wlat, r.before.proc, r.after.proc)
		return s
	}
	mixed := r.wl.readsPerWrite > 0
	offs, woffs := make([]int, len(recs)), make([]int, len(recs))
	for i := 0; i < len(r.slices) && i+1 < len(r.marks); i++ {
		var parts, wparts [][]int64
		for k, rec := range recs {
			c := int(rec.slices[i])
			parts = append(parts, rec.lat[offs[k]:offs[k]+c])
			offs[k] += c
			if mixed {
				wc := int(rec.wslices[i])
				wparts = append(wparts, rec.wlat[woffs[k]:woffs[k]+wc])
				woffs[k] += wc
			}
		}
		lat := sortedCopy(parts...)
		wlat := lat
		if mixed {
			wlat = sortedCopy(wparts...)
		}
		s.add(1, lat, wlat, r.marks[i], r.marks[i+1])
	}
	return s
}
