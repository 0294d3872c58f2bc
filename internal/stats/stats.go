// Package stats provides the measurement utilities shared by the
// experiment harness: latency histograms with percentile queries, and
// fixed-width table / CSV rendering for regenerating the paper's tables
// and figure series.
package stats

import (
	"math"
	"sort"
	"sync"
)

// Histogram records int64 samples (typically simulated nanoseconds) and
// answers percentile queries. Up to maxExact samples are kept exactly;
// beyond that, reservoir sampling keeps percentiles statistically sound
// without unbounded memory.
type Histogram struct {
	mu      sync.Mutex
	samples []int64
	n       int64 // total observed
	sum     int64
	max     int64
	rng     uint64 // xorshift state for the reservoir
}

const maxExact = 1 << 16

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if len(h.samples) < maxExact {
		h.samples = append(h.samples, v)
		return
	}
	// Reservoir: replace a random slot with probability maxExact/n.
	if h.rng == 0 {
		// xorshift of 0 stays 0; a fixed seed keeps runs deterministic.
		h.rng = 0x9E3779B97F4A7C15
	}
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	if idx := h.rng % uint64(h.n); idx < maxExact {
		h.samples[idx] = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the p-th percentile (0 < p <= 100) of the retained
// samples, or 0 with no samples.
func (h *Histogram) Percentile(p float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	s := append([]int64(nil), h.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// P50 is Percentile(50).
func (h *Histogram) P50() int64 { return h.Percentile(50) }

// P95 is Percentile(95).
func (h *Histogram) P95() int64 { return h.Percentile(95) }

// P99 is Percentile(99).
func (h *Histogram) P99() int64 { return h.Percentile(99) }
