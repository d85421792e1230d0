package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/transport"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{50, 50}, {90, 90}, {91, 100}, {99, 100}, {100, 100}, {10, 10}, {1, 10}, {0.1, 10}} {
		if got := percentile(ten, c.q); got != c.want {
			t.Errorf("percentile(1..10 x10, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 99.9); got != 7 {
		t.Errorf("single sample p99.9 = %d, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample = %d, want 0", got)
	}
	// An odd count: the median is the middle element, never interpolated.
	if got := percentile([]int64{1, 2, 1000}, 50); got != 2 {
		t.Errorf("p50 of {1,2,1000} = %d, want 2", got)
	}
}

func TestBestSlicesIgnoresStalledSlices(t *testing.T) {
	rate := make([]float64, 20)
	for i := range rate {
		rate[i] = 4000
	}
	rate[7] = 0 // one second in which nothing completed
	for i := 10; i < 18; i++ {
		rate[i] = 3000 // eight seconds of a noisy neighbour
	}
	if got := bestSlices(rate, true); got != 4000 {
		t.Errorf("rate with stalled and slowed slices = %v, want 4000 (mean 3400, median 4000->3500)", got)
	}
	// A cost takes the lowest fifth, and a fifth of 15 slices is 3.
	cost := []float64{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 2, 3}
	if got := bestSlices(cost, false); got != 2 {
		t.Errorf("cost over the best fifth = %v, want mean(1,2,3) = 2", got)
	}
	// One lucky slice does not set the figure on its own.
	if got := bestSlices([]float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 40}, true); got != 25 {
		t.Errorf("best fifth of ten = %v, want mean(40,10) = 25", got)
	}
	if got := bestSlices([]float64{7}, true); got != 7 {
		t.Errorf("single slice = %v, want 7", got)
	}
	if got := bestSlices(nil, true); got != 0 {
		t.Errorf("no slices = %v, want 0", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
	if q1, q3 = quartiles([]float64{3, 5}); q1 != 2.5 || q3 != 5.5 {
		t.Errorf("quartiles(3,5) = %v, %v, want 2.5, 5.5", q1, q3)
	}
}

// fakeClock is a paceClock that only moves when told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time         { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) { c.now = t }

// A generator stall must be charged to the calls that were due during it:
// they leave late, back to back, and each one's latency runs from its due
// time, not from when the loop got round to it.
func TestPacedLoopChargesAStallToTheCallsDueDuringIt(t *testing.T) {
	base := time.Unix(1000, 0)
	clk := &fakeClock{now: base}
	const period, service = 2 * time.Millisecond, time.Millisecond
	rec := newRecorder(base, time.Second)
	var lateness []time.Duration
	i := 0
	pacedLoop(clk, base.Add(period), period, base.Add(40*time.Millisecond), func() time.Duration { return 0 }, func(due time.Time) bool {
		lateness = append(lateness, clk.now.Sub(due))
		cost := service
		if i == 3 {
			cost = 10 * time.Millisecond // the system (or the generator) stalls under this call
		}
		i++
		clk.now = clk.now.Add(cost)
		rec.done(due, clk.now, false, true)
		return true
	})
	ms := func(n int) int64 { return int64(time.Duration(n) * time.Millisecond) }
	wantLat := []int64{ms(1), ms(1), ms(1), ms(10), ms(9), ms(8), ms(7), ms(6), ms(5), ms(4), ms(3), ms(2), ms(1), ms(1), ms(1), ms(1), ms(1), ms(1), ms(1)}
	if !reflect.DeepEqual(rec.lat, wantLat) {
		t.Errorf("latencies from due time:\n got %v\nwant %v", rec.lat, wantLat)
	}
	wantLate := []time.Duration{0, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0}
	for k := range wantLate {
		wantLate[k] *= time.Millisecond
	}
	if !reflect.DeepEqual(lateness, wantLate) {
		t.Errorf("issue lateness:\n got %v\nwant %v", lateness, wantLate)
	}
	if rec.attempted != 19 || rec.failed != 0 {
		t.Errorf("attempted/failed = %d/%d, want 19/0", rec.attempted, rec.failed)
	}
}

func TestRecorderAttributesByCompletionTime(t *testing.T) {
	start := time.Unix(2000, 0)
	rec := newRecorder(start, 3*time.Second)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	rec.done(at(-500), at(-100), true, true) // warm-up: checked, not measured
	rec.done(at(-50), at(10), true, true)    // straddles the start: counted, in slice 0
	rec.done(at(900), at(1100), false, true) // a read, slice 1
	rec.done(at(2990), at(3001), true, false)
	if rec.attempted != 4 || rec.failed != 1 {
		t.Errorf("attempted/failed = %d/%d, want 4/1", rec.attempted, rec.failed)
	}
	if want := []uint32{1, 1, 0}; !reflect.DeepEqual(rec.slices, want) {
		t.Errorf("slices = %v, want %v", rec.slices, want)
	}
	if len(rec.lat) != 2 || len(rec.wlat) != 1 {
		t.Errorf("recorded %d ops / %d writes inside the window, want 2 / 1", len(rec.lat), len(rec.wlat))
	}
}

// stubEndpoint is the transport under the decorator.
type stubEndpoint struct {
	sent int
	err  error
}

func (s *stubEndpoint) ID() ids.ProcessID                 { return "stub" }
func (s *stubEndpoint) Send(ids.ProcessID, []byte) error  { s.sent++; return s.err }
func (s *stubEndpoint) Inbound() <-chan transport.Inbound { return nil }
func (s *stubEndpoint) Close() error                      { return nil }

func TestSendTapCountsAndPassesThrough(t *testing.T) {
	inner := &stubEndpoint{}
	tap := &sendTap{Endpoint: inner}
	for i := 0; i < 3; i++ {
		if err := tap.Send("peer", make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	inner.err = errors.New("closed")
	if err := tap.Send("peer", make([]byte, 20)); !errors.Is(err, inner.err) {
		t.Errorf("Send error = %v, want the inner endpoint's", err)
	}
	if inner.sent != 4 || tap.frames.Load() != 4 || tap.bytes.Load() != 320 {
		t.Errorf("inner sends %d, tap frames %d bytes %d; want 4, 4, 320", inner.sent, tap.frames.Load(), tap.bytes.Load())
	}
	if tap.ID() != "stub" {
		t.Errorf("decorator hides the endpoint's identity: %q", tap.ID())
	}
}

func TestExecTapCountsPerMethodAndTimesWhenTraced(t *testing.T) {
	h := func(method string, args []byte) ([]byte, error) {
		time.Sleep(time.Millisecond)
		return args, nil
	}
	plain, traced := &execTap{}, &execTap{timed: true}
	for _, tap := range []*execTap{plain, traced} {
		w := tap.wrap(h)
		for _, m := range []string{"put", "put", "get"} {
			if out, err := w(m, []byte("x")); err != nil || string(out) != "x" {
				t.Fatalf("wrapped handler returned %q, %v", out, err)
			}
		}
		if tap.puts.Load() != 2 || tap.other.Load() != 1 {
			t.Errorf("puts/other = %d/%d, want 2/1", tap.puts.Load(), tap.other.Load())
		}
	}
	if plain.nanos.Load() != 0 {
		t.Error("the plain pass must not time the servant")
	}
	if got := time.Duration(traced.nanos.Load()); got < 3*time.Millisecond {
		t.Errorf("traced servant time = %v, want >= 3ms", got)
	}
}

func TestCompareFlagsOnlyRegressionsBeyondTheBound(t *testing.T) {
	set := func(ops, p50 float64) *setFile {
		return &setFile{Workloads: map[string]*workloadResult{"open_majority": {
			runResult: runResult{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"ops_per_s": {Value: ops, Unit: "1/s"}, "p50_ms": {Value: p50, Unit: "ms"},
			}},
		}}}
	}
	base := set(4000, 0.40)
	for _, c := range []struct {
		name string
		cand *setFile
		want int
	}{
		{"identical", set(4000, 0.40), 0},
		{"inside the bound", set(3200, 0.48), 0},
		{"much better", set(8000, 0.10), 0},
		{"throughput regressed", set(2900, 0.40), 1},
		{"latency regressed", set(4000, 0.52), 1},
	} {
		if got := compareSets(discard{}, base, c.cand); got != c.want {
			t.Errorf("%s: exit code %d, want %d", c.name, got, c.want)
		}
	}
	bad := set(4000, 0.40)
	bad.Workloads["open_majority"].Correct = false
	if got := compareSets(discard{}, base, bad); got != 1 {
		t.Errorf("an incorrect run must fail the comparison, got %d", got)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BENCHMARK.json repeats the catalogue in metrics.go and workloads.go; the
// two must not drift apart.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.Name || spec.Workloads[i].Why != wl.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q / %q", i, spec.Workloads[i], wl.Name, wl.Why)
		}
		if len(wl.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", wl.Name, len(wl.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, got, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, got, d)
		}
		if seen[d.Name] || d.Moves == "" {
			t.Errorf("per-layer metric %q is duplicated or predicts nothing", d.Name)
		}
		seen[d.Name] = true
	}
}
