package main

import (
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of an
// ascending-sorted sample: the smallest value with at least q% of the
// sample at or below it. An empty sample reports 0.
func percentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// Ceil(q% of n), with the slack float rounding needs: 90% of 10 must be
	// rank 9 although 0.9*10 computes to a hair above 9.
	rank := int(q/100*float64(n) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy merges per-generator samples into one ascending slice.
func sortedCopy(parts ...[]int64) []int64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.Sort(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// bestSlices is the estimator behind every time-based end-to-end metric.
// The window is cut into one-second slices, the metric is computed per
// slice, and the result is the mean of the best fifth of the slices (at
// least one; highest for a rate, lowest for a cost).
//
// The bench hosts share cores with other tenants and slow down by a fifth
// or more for tens of seconds at a time; interference only ever makes a
// slice worse, never better, so the best slices are the ones that timed the
// program rather than the neighbours. Measured on ten runs per workload, the
// run-to-run interquartile spread of throughput was 10-24 % of the median
// for the whole-window mean and for the median slice, 3-10 % for this
// estimator (README.md, "Noise"). Taking a fifth rather than the single best slice
// keeps one lucky second from setting the figure.
func bestSlices(xs []float64, higher bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := (len(s) + 4) / 5
	if higher {
		s = s[len(s)-k:]
	} else {
		s = s[:k]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(k)
}

// quartiles returns the first and third quartile of xs by the exclusive
// method (the one Python's statistics.quantiles(values, n=4) uses, which is
// what the acceptance rule for run-to-run spread is stated in).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// procSample is one reading of the process-wide cost counters the
// end-to-end and per-layer metrics are deltas of.
type procSample struct {
	cpuUser    time.Duration
	cpuSys     time.Duration
	ctxsw      int64
	allocObjs  uint64
	allocBytes uint64
	gcCPU      float64 // seconds
}

const (
	mAllocObjs  = "/gc/heap/allocs:objects"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
)

// sampleProc reads rusage and runtime/metrics. It allocates nothing that
// scales with the run, so sampling at both window edges cancels out.
func sampleProc() procSample {
	var s procSample
	read := [3]metrics.Sample{{Name: mAllocObjs}, {Name: mAllocBytes}, {Name: mGCCPU}}
	metrics.Read(read[:])
	s.allocObjs = read[0].Value.Uint64()
	s.allocBytes = read[1].Value.Uint64()
	s.gcCPU = read[2].Value.Float64()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpuUser = time.Duration(ru.Utime.Nano())
		s.cpuSys = time.Duration(ru.Stime.Nano())
		s.ctxsw = int64(ru.Nvcsw + ru.Nivcsw)
	}
	return s
}
