package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramEmptySnapshot(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Max != 0 || s.P50 != 0 || s.P95 != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	if s.Mean() != 0 {
		t.Fatalf("empty mean = %v", s.Mean())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 3*time.Millisecond || s.Max != 3*time.Millisecond {
		t.Fatalf("bad snapshot: %+v", s)
	}
	// A single sample is its own p50/p95/p99: the bucket bound is clamped
	// to the observed max.
	for _, p := range []time.Duration{s.P50, s.P95, s.P99} {
		if p != 3*time.Millisecond {
			t.Fatalf("single-sample percentile = %v, want 3ms (%+v)", p, s)
		}
	}
}

func TestHistogramBucketOverflow(t *testing.T) {
	var h Histogram
	huge := 2 * time.Hour // far beyond the last bucket bound (~9min)
	h.Observe(huge)
	h.Observe(time.Microsecond)
	s := h.Snapshot()
	if s.Count != 2 || s.Max != huge {
		t.Fatalf("bad snapshot: %+v", s)
	}
	if s.P99 != huge {
		t.Fatalf("overflow percentile = %v, want %v", s.P99, huge)
	}
	if s.P50 != time.Microsecond {
		t.Fatalf("p50 = %v, want 1µs", s.P50)
	}
}

func TestHistogramNegativeObservation(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("negative observation not clamped: %+v", s)
	}
}

func TestHistogramPercentileOrdering(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Fatalf("percentiles out of order: %+v", s)
	}
	// Bucketed percentiles are upper bounds: p50 of 1..1000ms lies in the
	// bucket covering 512ms..1024ms.
	if s.P50 < 500*time.Millisecond || s.P50 > 1100*time.Millisecond {
		t.Fatalf("p50 = %v, outside plausible bucket", s.P50)
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if g.Value() != 5 {
		t.Fatalf("SetMax regressed: %d", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatalf("SetMax did not raise: %d", g.Value())
	}
}

func TestRegistryIdentityAndSnapshot(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") || r.Gauge("g") != r.Gauge("g") || r.Histogram("h") != r.Histogram("h") {
		t.Fatal("instrument getters must be idempotent")
	}
	r.Counter("a").Add(7)
	r.Gauge("g").Set(-2)
	r.Histogram("h").Observe(time.Millisecond)
	r.SetCollector("extra", func(emit func(string, int64)) { emit("computed", 42) })
	s := r.Snapshot()
	if s.Counters["a"] != 7 || s.Gauges["g"] != -2 || s.Hists["h"].Count != 1 || s.Gauges["computed"] != 42 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
	r.DropCollector("extra")
	if _, ok := r.Snapshot().Gauges["computed"]; ok {
		t.Fatal("dropped collector still ran")
	}
}

// TestRegistryConcurrentAccess exercises get-or-create, observation and
// snapshotting from many goroutines; run under -race it is the registry's
// data-race test.
func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").SetMax(int64(j))
				r.Histogram("h").Observe(time.Duration(j) * time.Microsecond)
				if j%50 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != 8*500 {
		t.Fatalf("lost increments: %d", s.Counters["c"])
	}
	if s.Hists["h"].Count != 8*500 {
		t.Fatalf("lost observations: %d", s.Hists["h"].Count)
	}
}

func TestSnapshotWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("transport_msgs_sent").Add(3)
	r.Histogram("core_invoke_latency_all").Observe(2 * time.Millisecond)
	var b strings.Builder
	r.Snapshot().WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"transport_msgs_sent 3",
		"core_invoke_latency_all_count 1",
		"core_invoke_latency_all_p99_us 2000",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := Sanitize("cs/sg/c1.lan/7"); got != "cs_sg_c1_lan_7" {
		t.Fatalf("Sanitize = %q", got)
	}
	if got := Sanitize("ok_Name09"); got != "ok_Name09" {
		t.Fatalf("Sanitize mangled clean input: %q", got)
	}
}

// TestLabeledSeries: labeled instrument names round-trip through both
// renderers — WriteText places histogram suffixes before the label set,
// WriteProm emits one TYPE line per family even with labeled variants.
func TestLabeledSeries(t *testing.T) {
	if got := Labeled("x_total", "group", `kv/s0"quote`); got != `x_total{group="kv/s0\"quote"}` {
		t.Fatalf("Labeled = %q", got)
	}
	if got := Labeled("x", "group", "a", "proc", "p1"); got != `x{group="a",proc="p1"}` {
		t.Fatalf("Labeled 2 pairs = %q", got)
	}

	r := NewRegistry()
	r.Gauge(Labeled("core_server_app_sent", "group", "kv/s0")).Set(3)
	r.Gauge(Labeled("core_server_app_sent", "group", "kv/s1")).Set(4)
	r.Gauge("core_server_app_sent_extra").Set(9)
	r.Histogram(Labeled("lat", "group", "kv/s0")).Observe(time.Millisecond)

	var text strings.Builder
	r.Snapshot().WriteText(&text)
	for _, want := range []string{
		`core_server_app_sent{group="kv/s0"} 3`,
		`core_server_app_sent{group="kv/s1"} 4`,
		`lat_count{group="kv/s0"} 1`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("WriteText missing %q:\n%s", want, text.String())
		}
	}

	var prom strings.Builder
	r.Snapshot().WriteProm(&prom)
	out := prom.String()
	if got := strings.Count(out, "# TYPE core_server_app_sent gauge"); got != 1 {
		t.Fatalf("family TYPE line count = %d, want 1:\n%s", got, out)
	}
	for _, want := range []string{
		`core_server_app_sent{group="kv/s0"} 3`,
		`core_server_app_sent{group="kv/s1"} 4`,
		"# TYPE core_server_app_sent_extra gauge",
		`lat_seconds{group="kv/s0",quantile="0.5"}`,
		`lat_seconds_count{group="kv/s0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteProm missing %q:\n%s", want, out)
		}
	}
}

// Mean returns the average observation, or zero when empty.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}
