// Command benchmark is the repository's performance yardstick: it times the
// paper's actual product — a client Call/Read through binding group, request
// manager, server group, dispatch, servant and reply collection — at real
// speed, over real loopback TCP, in one process, and checks every answer.
//
//	go run ./benchmark                      six workloads, end-to-end metrics
//	go run ./benchmark -trace 1             per-layer metrics and the layer ladder
//	go run ./benchmark -workload read_mix -seed 7 -seconds 15 -trace 0
//	go run ./benchmark -repeat 5            five sets, median/quartiles/min/max
//	go run ./benchmark -compare a.json b.json
//
// It imports product packages only (never internal/bench) and touches no
// product file: the plain pass runs with the product's default
// observability, the traced pass measures each layer from outside. See
// README.md for why each workload exists and which layer metric is
// predicted to move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

const (
	setupsPerRun = 5               // world set-ups per run; setup_s is their median
	maxWarm      = 2 * time.Second // unrecorded warm-up before a measured window
	runTimeout   = 170 * time.Second
)

// Shares of -seconds the traced run gives its three parts, so that it
// costs the same wall time as a plain run.
const (
	tracedShare    = 0.40 // the traced window
	referenceShare = 0.20 // an untraced window of the same workload, for trace.overhead_frac
	ladderShare    = 0.40 // the layer ladder, split evenly over its timed loops
	ladderLoops    = 10
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all six)")
		seed    = flag.Int64("seed", 1, "seed of the generated keys, values and orders")
		seconds = flag.Float64("seconds", 20, "measured window per workload, seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from a plain pass; 1: per-layer metrics from a traced pass plus the layer ladder")
		repeat  = flag.Int("repeat", 1, "run this many sets (seed, seed+1, ...) and print median, quartiles, min and max per metric")
		compare = flag.Bool("compare", false, "compare two set files: benchmark -compare base.json new.json")
		out     = flag.String("out", filepath.Join(".bench_build", "sets"), "directory -repeat writes its set files to")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare base.json new.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected arguments %q", flag.Args())
	}
	selected := workloads
	if *name != "" {
		wl := workloadNamed(*name)
		if wl == nil {
			fatal(2, "unknown workload %q", *name)
		}
		selected = []*workload{wl}
	}
	if *seconds <= 0 || *repeat < 1 {
		fatal(2, "-seconds and -repeat must be positive")
	}
	window := time.Duration(*seconds * float64(time.Second))

	var sets []*setFile
	correct := true
	for i := 0; i < *repeat; i++ {
		set := runSet(selected, *seed+int64(i), window, *trace != 0)
		sets = append(sets, set)
		correct = correct && set.correct()
		if *repeat > 1 {
			path := filepath.Join(*out, fmt.Sprintf("set-%d.json", i+1))
			if err := set.write(path); err != nil {
				fatal(1, "%v", err)
			}
			fmt.Printf("# set %d of %d written to %s\n", i+1, *repeat, path)
		}
	}
	if *repeat > 1 {
		printSpread(os.Stdout, sets)
	}
	// The last line is the result: the contract's four keys for a single
	// workload, the whole set otherwise.
	last := sets[len(sets)-1]
	var final any = last
	if *name != "" {
		final = last.Workloads[*name].runResult
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// clientCount is how many client services (one generator goroutine each)
// load the system: two, the shape every workload is defined for, or one on
// a single-core host — never more generators than cores.
func clientCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// runResult is the contract's result object for one workload.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadResult adds what a reader of a set file needs beside it.
type workloadResult struct {
	runResult
	Samples  int      `json:"samples"` // latency samples behind the percentiles
	Slices   []uint32 `json:"slices"`  // completions per one-second slice of the window
	Problems []string `json:"problems,omitempty"`
	// CPUPerOp is the plain pass's CPU microseconds per operation: printed
	// and kept in set files, never gated (see metrics.go).
	CPUPerOp float64 `json:"cpu_us_per_op,omitempty"`
}

// provenance stamps a set with what it was measured on.
type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"window_seconds"`
	Traced     bool    `json:"traced"`
	Clients    int     `json:"clients"`
	Setups     int     `json:"setups_per_run"`
}

type setFile struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func (s *setFile) correct() bool {
	for _, r := range s.Workloads {
		if !r.Correct {
			return false
		}
	}
	return true
}

func (s *setFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func stamp(seed int64, window time.Duration, traced bool) provenance {
	p := provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", Seed: seed, Seconds: window.Seconds(), Traced: traced,
		Clients: clientCount(), Setups: setupsPerRun,
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		p.Kernel = string(b)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	return p
}

// runSet runs the selected workloads once each and prints their metrics.
func runSet(selected []*workload, seed int64, window time.Duration, traced bool) *setFile {
	set := &setFile{Provenance: stamp(seed, window, traced), Workloads: make(map[string]*workloadResult)}
	pj, _ := json.Marshal(set.Provenance) // a struct of plain fields cannot fail to encode
	fmt.Printf("# provenance %s\n", pj)
	var ladder map[string]float64
	for _, wl := range selected {
		ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
		var res *workloadResult
		if traced {
			res, ladder = runTraced(ctx, wl, seed, window, ladder)
		} else {
			res = runPlain(ctx, wl, seed, window)
		}
		cancel()
		set.Workloads[wl.Name] = res
		printResult(wl, res, traced)
	}
	if traced && ladder != nil {
		printLadder(os.Stdout, ladder)
	}
	return set
}

func warmFor(window time.Duration) time.Duration {
	if window < maxWarm {
		return window
	}
	return maxWarm
}

// broken is the result of a run whose world could not be built or driven.
func broken(err error) *workloadResult {
	return &workloadResult{runResult: runResult{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}, Problems: []string{err.Error()}}
}

func resultOf(r *passResult, metrics map[string]metricValue) *workloadResult {
	return &workloadResult{
		runResult: runResult{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics},
		Samples:   len(r.lat),
		Slices:    r.slices,
		Problems:  r.problems,
	}
}

// runPlain is the end-to-end run: the system is set up setupsPerRun times
// (all but the last torn down at once) so setup_s is a median, then the
// last world carries the measured window.
func runPlain(ctx context.Context, wl *workload, seed int64, window time.Duration) *workloadResult {
	cfg := passConfig{seed: seed, clients: clientCount(), warm: warmFor(window), window: window}
	setups := make([]float64, 0, setupsPerRun)
	for i := 1; i < setupsPerRun; i++ {
		d, err := setupOnce(ctx, wl, cfg)
		if err != nil {
			return broken(err)
		}
		setups = append(setups, d.Seconds())
	}
	r, err := runPass(ctx, wl, cfg)
	if err != nil {
		return broken(err)
	}
	setups = append(setups, r.setup.Seconds())
	setup := time.Duration(median(setups) * float64(time.Second))
	res := resultOf(r, fill(endToEnd, r.endToEnd(setup)))
	res.CPUPerOp = bestSlices(r.series.cpu, false)
	return res
}

// setupOnce builds and discards a world, returning its set-up time.
func setupOnce(ctx context.Context, wl *workload, cfg passConfig) (time.Duration, error) {
	if wl.peer {
		w, err := buildPeerWorld(ctx, cfg.seed, false)
		if err != nil {
			return 0, err
		}
		defer w.close()
		return w.setup, nil
	}
	w, err := buildWorld(ctx, wl, cfg.clients, cfg.seed, false)
	if err != nil {
		return 0, err
	}
	defer w.close()
	return w.setup, nil
}

// runTraced is the per-layer run: a short untraced window for reference,
// the traced window, and (once per set) the layer ladder.
func runTraced(ctx context.Context, wl *workload, seed int64, window time.Duration, ladder map[string]float64) (*workloadResult, map[string]float64) {
	share := func(f float64) time.Duration { return time.Duration(float64(window) * f) }
	cfg := passConfig{seed: seed, clients: clientCount(), warm: warmFor(share(referenceShare)), window: share(referenceShare)}
	ref, err := runPass(ctx, wl, cfg)
	if err != nil {
		return broken(err), ladder
	}
	cfg.warm, cfg.window, cfg.traced = warmFor(share(tracedShare)), share(tracedShare), true
	r, err := runPass(ctx, wl, cfg)
	if err != nil {
		return broken(err), ladder
	}
	r.problems = append(ref.problems, r.problems...)
	r.attempted += ref.attempted
	r.failed += ref.failed
	if ladder == nil {
		if ladder, err = runLadder(ctx, seed, share(ladderShare)/ladderLoops); err != nil {
			r.fail("ladder: %v", err)
			ladder = map[string]float64{}
		}
	}
	vals := r.inSitu(ref.opsPerS())
	for k, v := range ladder {
		vals[k] = v
	}
	return resultOf(r, fill(perLayer, vals)), ladder
}

// printResult prints one "workload metric value unit" line per metric.
func printResult(wl *workload, res *workloadResult, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("%s %s %.6g %s\n", wl.Name, d.Name, v.Value, d.Unit)
	}
	if !traced {
		fmt.Printf("%s cpu_us_per_op %.6g us\n", wl.Name, res.CPUPerOp)
	}
	fmt.Printf("%s fail_ratio %.6g ratio\n", wl.Name, ratio(float64(res.Failed), float64(res.Attempted)))
	fmt.Printf("# %s samples=%d attempted=%d failed=%d correct=%v slices=%v\n", wl.Name, res.Samples, res.Attempted, res.Failed, res.Correct, res.Slices)
	sort.Strings(res.Problems)
	for _, p := range res.Problems {
		fmt.Printf("# %s PROBLEM %s\n", wl.Name, p)
	}
}
