package runtime

// Sampled access-heat tracking for the load balancer. This replaces the
// old SetAccessHook callback (a global-mutex map update on every
// data-path access) with the same shape as Config.Metrics: an observer
// behind the one observation point (trace.go) — off, the hot path pays
// one branch and zero allocations — and, when on, power-of-two sampling
// into per-rank state so the common case is one atomic increment.
// Sampled accesses land in a fixed-size space-saving sketch per rank
// (stats.TopK), never an unbounded map: block population can be
// millions, but the policy engine only ever needs the heavy hitters, and
// the sketch guarantees every block hotter than N/K is tracked.
//
// Keys carry (block, source rank, read/write) packed in one uint64, so
// the sketch answers not just "which blocks are hot" but "who is heating
// them and how" — exactly what the migrate-vs-replicate decision needs.

import (
	"sort"
	"sync"
	"sync/atomic"

	"nmvgas/internal/gas"
	"nmvgas/internal/stats"
)

// HeatConfig configures sampled access-heat tracking (Config.Heat).
type HeatConfig struct {
	// Enabled turns the tracker on. Off, the data path pays one branch
	// and allocates nothing.
	Enabled bool
	// SampleShift samples 1 of every 2^SampleShift accesses per serving
	// rank (0 = count every access). Sampled counts are not rescaled:
	// multiply by 1<<SampleShift for an absolute estimate; the policy
	// engine only needs relative heat.
	SampleShift int
}

// heatTopK is the per-rank sketch capacity. Memory is fixed at
// Ranks × heatTopK entries regardless of block population.
const heatTopK = 128

// withDefaults fills defaults; a disabled config normalizes to zero.
func (c HeatConfig) withDefaults() HeatConfig {
	if !c.Enabled {
		return HeatConfig{}
	}
	if c.SampleShift < 0 {
		c.SampleShift = 0
	}
	return c
}

// heatKey packs (src, read, block) into one sketch key: block in bits
// 0..31 (BlockID is uint32), the read flag at bit 32, and the source rank
// (≤ 4095, the GVA home-field width) in bits 33..44.
func heatKey(src int, b gas.BlockID, read bool) uint64 {
	k := uint64(src)<<33 | uint64(b)
	if read {
		k |= 1 << 32
	}
	return k
}

// HeatSample is one decoded sketch entry: sampled accesses to Block
// issued by rank Src. Count overestimates the true sampled frequency by
// at most Err (space-saving bounds); Count-Err is a guaranteed floor.
type HeatSample struct {
	Block gas.BlockID
	Src   int
	Read  bool
	Count uint64
	Err   uint64
}

func decodeHeatItem(it stats.TopKItem) HeatSample {
	return HeatSample{
		Block: gas.BlockID(it.Key & 0xFFFFFFFF),
		Src:   int(it.Key >> 33),
		Read:  it.Key&(1<<32) != 0,
		Count: it.Count,
		Err:   it.Err,
	}
}

// heatRank is one serving rank's tracker. Under EngineGo different ranks
// record concurrently, so the counters are padded apart; the sketch is
// only touched on the sampled slow path, behind its own lock.
type heatRank struct {
	n    atomic.Uint64 // accesses observed (drives the sampling decision)
	load atomic.Uint64 // sampled accesses served this epoch
	_    [48]byte      // keep neighbouring ranks off this cache line
	mu   sync.Mutex
	topk *stats.TopK
}

// heatState is the world's heat tracker; nil unless Config.Heat.Enabled.
type heatState struct {
	mask  uint64        // 2^SampleShift - 1; 0 samples everything
	total atomic.Uint64 // cumulative sampled accesses across epochs
	ranks []heatRank
}

func newHeatState(cfg HeatConfig, ranks int) *heatState {
	h := &heatState{
		mask:  uint64(1)<<cfg.SampleShift - 1,
		ranks: make([]heatRank, ranks),
	}
	for i := range h.ranks {
		h.ranks[i].topk = stats.NewTopK(heatTopK)
	}
	return h
}

// note records one data-path access served by `rank` on behalf of `src`.
func (h *heatState) note(rank, src int, b gas.BlockID, read bool) {
	r := &h.ranks[rank]
	if r.n.Add(1)&h.mask != 0 {
		return
	}
	r.load.Add(1)
	h.total.Add(1)
	key := heatKey(src, b, read)
	r.mu.Lock()
	r.topk.Offer(key, 1)
	r.mu.Unlock()
}

// observe is the sampler's view of one protocol step: the exec of a user
// action (put-shaped; the issuing rank is the one in the parcel's OpID,
// see newOpID) and a one-sided serve (Info = issuing rank << 1 | read),
// both counted at the serving rank.
func (h *heatState) observe(rank int, kind TraceKind, b gas.BlockID, info, opID uint64) {
	switch kind {
	case TraceExec:
		if info >= uint64(firstUserAction) {
			h.note(rank, int(opID>>48)-1, b, false)
		}
	case noteServe:
		h.note(rank, int(info>>1), b, info&1 != 0)
	}
}

// HeatEnabled reports whether the world tracks access heat.
func (w *World) HeatEnabled() bool { return w.heat != nil }

// HeatSampled returns the cumulative number of sampled accesses since
// Start (across epoch resets). Zero when heat tracking is off.
func (w *World) HeatSampled() uint64 {
	if w.heat == nil {
		return 0
	}
	return w.heat.total.Load()
}

// HeatLoads returns the sampled accesses served per rank in the current
// epoch (nil when heat tracking is off). loadbal.Imbalance summarizes it.
func (w *World) HeatLoads() []uint64 {
	if w.heat == nil {
		return nil
	}
	out := make([]uint64, len(w.heat.ranks))
	for i := range w.heat.ranks {
		out[i] = w.heat.ranks[i].load.Load()
	}
	return out
}

// HeatSamples returns every tracked sketch entry from every rank without
// resetting. Entries for the same (block, src, read) can appear once per
// serving rank (a block that migrated mid-epoch was served by two);
// consumers aggregate by summing.
func (w *World) HeatSamples() []HeatSample {
	if w.heat == nil {
		return nil
	}
	var out []HeatSample
	for i := range w.heat.ranks {
		r := &w.heat.ranks[i]
		r.mu.Lock()
		items := r.topk.Items()
		r.mu.Unlock()
		for _, it := range items {
			out = append(out, decodeHeatItem(it))
		}
	}
	return out
}

// HeatEpoch snapshots the current epoch — per-rank sampled loads and all
// sketch entries — and resets both for the next one. This is the policy
// engine's per-epoch read.
func (w *World) HeatEpoch() (loads []uint64, samples []HeatSample) {
	if w.heat == nil {
		return nil, nil
	}
	loads = make([]uint64, len(w.heat.ranks))
	for i := range w.heat.ranks {
		r := &w.heat.ranks[i]
		loads[i] = r.load.Swap(0)
		r.mu.Lock()
		items := r.topk.Items()
		r.topk.Reset()
		r.mu.Unlock()
		for _, it := range items {
			samples = append(samples, decodeHeatItem(it))
		}
	}
	return loads, samples
}

// HeatTop merges every rank's sketch and returns the hottest entries,
// highest sampled count first, at most k of them (k <= 0 returns all
// merged entries). Read-only; the per-rank sketches keep accumulating.
func (w *World) HeatTop(k int) []HeatSample {
	if w.heat == nil {
		return nil
	}
	// Merging into a sketch wide enough for every rank's entries keeps
	// the merge lossless (no evictions), so per-entry error bounds carry
	// through intact.
	merged := stats.NewTopK(len(w.heat.ranks) * heatTopK)
	for i := range w.heat.ranks {
		r := &w.heat.ranks[i]
		r.mu.Lock()
		merged.Merge(r.topk)
		r.mu.Unlock()
	}
	out := make([]HeatSample, 0, merged.Len())
	for _, it := range merged.Items() {
		out = append(out, decodeHeatItem(it))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Block < out[j].Block
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
