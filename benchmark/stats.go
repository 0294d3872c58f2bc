package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count) and 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileSorted returns the q-quantile (0..1) of an ascending slice by
// the nearest-rank rule: the smallest value with at least q of the
// samples at or below it.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailCandidates are the percentiles the picker chooses among, lowest
// first.
var tailCandidates = []float64{0.90, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is one or two outliers, not a tail.
const minBeyond = 10

// latencySummary is what the percentile picker reports for one sample
// set: the median, the highest percentile that still has minBeyond
// samples beyond it, and the sample count that justifies both.
type latencySummary struct {
	Samples int
	P50     float64
	// TailPct is the chosen percentile as a percentage (99.9 for p99.9);
	// 0 when even p90 has fewer than minBeyond samples beyond it.
	TailPct float64
	Tail    float64
	// P99 and P999 are the fixed rows of the per-layer table; each is 0
	// when it lacks minBeyond samples beyond it.
	P99, P999 float64
}

// summarize sorts xs in place and picks the percentiles.
func summarize(xs []float64) latencySummary {
	sort.Float64s(xs)
	out := latencySummary{Samples: len(xs)}
	if len(xs) == 0 {
		return out
	}
	out.P50 = quantileSorted(xs, 0.5)
	for _, q := range tailCandidates {
		if beyond(len(xs), q) < minBeyond {
			break
		}
		out.TailPct = q * 100
		out.Tail = quantileSorted(xs, q)
		switch q {
		case 0.99:
			out.P99 = out.Tail
		case 0.999:
			out.P999 = out.Tail
		}
	}
	return out
}

// beyond is the number of samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// quartiles returns Q1, Q2, Q3 by the exclusive method Python's
// statistics.quantiles(values, n=4) uses, which is what the driver's
// spread check computes. Fewer than two values return the value thrice.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
