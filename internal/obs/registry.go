package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing instrument.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous (or high-water) instrument.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark operation used for queue depths.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of exponential latency buckets: bucket i
// holds observations with d <= 1µs<<i, so the range spans 1µs to ~9min;
// anything larger lands in the overflow bucket.
const histBuckets = 30

// Histogram is a fixed-bucket latency histogram. Observations are
// lock-free atomic adds; snapshots compute percentiles from the bucket
// counts (reported as the bucket upper bound, clamped to the observed
// maximum, so a single sample reports itself exactly).
type Histogram struct {
	buckets [histBuckets + 1]atomic.Uint64 // +1: overflow
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
}

// bucketBound returns bucket i's upper bound.
func bucketBound(i int) time.Duration { return time.Microsecond << i }

// Observe records one duration. Negative observations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < histBuckets && d > bucketBound(i) {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// HistSnapshot is a consistent-enough reading of a histogram (counts are
// read without a global lock; concurrent observations may skew a snapshot
// by the in-flight samples, which is fine for monitoring).
type HistSnapshot struct {
	Count         uint64
	Sum           time.Duration
	Max           time.Duration
	P50, P95, P99 time.Duration
}

// Snapshot computes count, sum, max and p50/p95/p99.
func (h *Histogram) Snapshot() HistSnapshot {
	var counts [histBuckets + 1]uint64
	total := uint64(0)
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{
		Count: total,
		Sum:   time.Duration(h.sum.Load()),
		Max:   time.Duration(h.max.Load()),
	}
	if total == 0 {
		return s
	}
	s.P50 = quantile(&counts, total, s.Max, 0.50)
	s.P95 = quantile(&counts, total, s.Max, 0.95)
	s.P99 = quantile(&counts, total, s.Max, 0.99)
	return s
}

// quantile locates the bucket containing the q-th sample and reports its
// upper bound, clamped to the observed maximum (the overflow bucket has
// no bound of its own).
func quantile(counts *[histBuckets + 1]uint64, total uint64, max time.Duration, q float64) time.Duration {
	// Rank of the q-th sample, rounding up: p99 of two samples is the
	// second one, not the first.
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	cum := uint64(0)
	for i := 0; i <= histBuckets; i++ {
		cum += counts[i]
		if cum >= target {
			if i == histBuckets || bucketBound(i) > max {
				return max
			}
			return bucketBound(i)
		}
	}
	return max
}

// Collector contributes computed gauge readings to a snapshot; layers
// whose state does not map onto standing instruments (per-link transport
// counters, a server role's aggregate) register one.
type Collector func(emit func(name string, v int64))

// Registry is a named-instrument registry. Instrument getters are
// get-or-create and return the same instrument for the same name, so
// independent layers may share an instrument by naming convention.
// Lookups take the registry lock: resolve instruments once at
// construction, not on hot paths.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors map[string]Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]*Histogram),
		collectors: make(map[string]Collector),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// SetCollector installs (or replaces) a named snapshot collector.
func (r *Registry) SetCollector(name string, fn Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors[name] = fn
}

// DropCollector removes a collector.
func (r *Registry) DropCollector(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.collectors, name)
}

// Snapshot is a point-in-time reading of every instrument.
type Snapshot struct {
	Counters map[string]uint64
	Gauges   map[string]int64
	Hists    map[string]HistSnapshot
}

// Snapshot reads every instrument and runs the collectors.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	collectors := make([]Collector, 0, len(r.collectors))
	for _, fn := range r.collectors {
		collectors = append(collectors, fn)
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters: make(map[string]uint64, len(counters)),
		Gauges:   make(map[string]int64, len(gauges)),
		Hists:    make(map[string]HistSnapshot, len(hists)),
	}
	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range hists {
		s.Hists[n] = h.Snapshot()
	}
	// Collectors run outside the registry lock: they may call back into
	// instrumented subsystems that themselves take locks.
	for _, fn := range collectors {
		fn(func(name string, v int64) { s.Gauges[name] = v })
	}
	return s
}

// WriteText renders the snapshot as sorted "name value" lines (durations
// in microseconds, suffixed _us), the format served at /metrics.
func (s Snapshot) WriteText(w io.Writer) {
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+6*len(s.Hists))
	for n, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", n, v))
	}
	for n, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", n, v))
	}
	us := func(d time.Duration) int64 { return int64(d / time.Microsecond) }
	for n, h := range s.Hists {
		base, labels := splitLabeled(n) // suffixes go before any label set
		lines = append(lines,
			fmt.Sprintf("%s_count%s %d", base, labels, h.Count),
			fmt.Sprintf("%s_sum_us%s %d", base, labels, us(h.Sum)),
			fmt.Sprintf("%s_max_us%s %d", base, labels, us(h.Max)),
			fmt.Sprintf("%s_p50_us%s %d", base, labels, us(h.P50)),
			fmt.Sprintf("%s_p95_us%s %d", base, labels, us(h.P95)),
			fmt.Sprintf("%s_p99_us%s %d", base, labels, us(h.P99)),
		)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// Sanitize maps an arbitrary identifier (a process, group or link name)
// into the instrument-name alphabet [a-zA-Z0-9_].
func Sanitize(s string) string {
	out := []byte(s)
	for i := 0; i < len(out); i++ {
		c := out[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
