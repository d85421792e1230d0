package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// printSpread summarises repeated sets: per (workload, metric) the median,
// quartiles, extremes and the interquartile spread as a share of the median
// — the figure the acceptance rule bounds.
func printSpread(w io.Writer, sets []*setFile) {
	fmt.Fprintf(w, "# spread over %d sets: workload metric median q1 q3 min max iqr/median\n", len(sets))
	for _, wl := range workloads {
		if sets[0].Workloads[wl.Name] == nil {
			continue
		}
		names := make([]string, 0, len(sets[0].Workloads[wl.Name].Metrics))
		for n := range sets[0].Workloads[wl.Name].Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			var xs []float64
			for _, s := range sets {
				if r := s.Workloads[wl.Name]; r != nil {
					if v, ok := r.Metrics[n]; ok {
						xs = append(xs, v.Value)
					}
				}
			}
			sort.Float64s(xs)
			med := median(xs)
			q1, q3 := quartiles(xs)
			fmt.Fprintf(w, "# spread %s %s %.6g %.6g %.6g %.6g %.6g %.4f\n",
				wl.Name, n, med, q1, q3, xs[0], xs[len(xs)-1], ratio(q3-q1, med))
		}
	}
}

func readSet(path string) (*setFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// worsening is how much worse cand is than base as a share of base, in the
// metric's own direction (negative: better).
func worsening(d metricDef, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - cand) / base
	}
	return (cand - base) / base
}

// compareFiles prints every (workload, end-to-end metric) pair of two set
// files and returns the exit code: 1 when any metric of the second file is
// worse than the first's by more than its bound or either run was
// incorrect, 2 when the files cannot be read, 0 otherwise. Per-layer
// metrics carry no bound and are not compared.
func compareFiles(w io.Writer, basePath, candPath string) int {
	base, err := readSet(basePath)
	if err == nil {
		var cand *setFile
		if cand, err = readSet(candPath); err == nil {
			return compareSets(w, base, cand)
		}
	}
	fmt.Fprintf(w, "compare: %v\n", err)
	return 2
}

func compareSets(w io.Writer, base, cand *setFile) int {
	code := 0
	fmt.Fprintf(w, "%-20s %-14s %12s %12s %9s %7s\n", "workload", "metric", "base", "new", "worse", "bound")
	for _, wl := range workloads {
		b, c := base.Workloads[wl.Name], cand.Workloads[wl.Name]
		if b == nil || c == nil {
			continue
		}
		if !b.Correct || !c.Correct {
			fmt.Fprintf(w, "%-20s INCORRECT RUN (base correct=%v, new correct=%v)\n", wl.Name, b.Correct, c.Correct)
			code = 1
		}
		for _, d := range endToEnd {
			bv, bok := b.Metrics[d.Name]
			cv, cok := c.Metrics[d.Name]
			if !bok || !cok {
				continue
			}
			worse := worsening(d, bv.Value, cv.Value)
			verdict := ""
			if worse > d.Bound {
				verdict = "  REGRESSION"
				code = 1
			}
			fmt.Fprintf(w, "%-20s %-14s %12.6g %12.6g %+8.1f%% %6.0f%%%s\n",
				wl.Name, d.Name, bv.Value, cv.Value, 100*worse, 100*d.Bound, verdict)
		}
	}
	return code
}
