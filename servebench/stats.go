package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of sorted xs by linear
// interpolation between the closest ranks (0 for no samples).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs, which it leaves as is.
func percentile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, p/100)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPct is the percentile every tail is reported at. It is frozen,
// not picked per run, so that a change that makes an operation faster
// (and so gives more samples in a closed loop) is compared at the same
// percentile. p90 is the highest conventional percentile that leaves
// at least ten samples beyond it in every workload's slowest runs
// (about 210 updates on ingest); p99 would need 1000.
const tailPct = 90

// latency summarizes one operation's latencies.
type latency struct {
	n         int
	p50       float64 // ms
	tail      float64 // ms, at tailPct
	tailAbove int     // samples above the tail
}

// summarize reports the median and the tail at tailPct.
func summarize(ds []time.Duration) latency {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	slices.Sort(ms)
	l := latency{n: len(ms), p50: quantile(ms, 0.5), tail: quantile(ms, tailPct/100.0)}
	for _, x := range ms {
		if x > l.tail {
			l.tailAbove++
		}
	}
	return l
}

// tailLabel describes where the tail sits, e.g. "p90, n=240, 24 beyond".
func (l latency) tailLabel() string {
	return fmt.Sprintf("p%d, n=%d, %d beyond", tailPct, l.n, l.tailAbove)
}
