package runtime

// Sampled access-heat tracking for the load balancer. This replaces the
// old SetAccessHook callback (a global-mutex map update on every
// data-path access) with the same shape as Config.Metrics: an observer
// behind the one observation point (trace.go) — off, the hot path pays
// one branch and zero allocations — and, when on, power-of-two sampling
// into per-rank state so the common case is one plain increment.
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

// heatRank is one serving rank's tracker, on the Locality it describes
// (nil when heat tracking is off). It has one writer, the rank's token
// holder or DES event (World.observe runs on the rank it observes), and
// readers outside the rank claim it (World.claim), so it has no lock,
// no pad and no atomic field.
type heatRank struct {
	mask  uint64 // 2^SampleShift - 1; 0 samples everything
	n     uint64 // accesses observed (drives the sampling decision)
	load  uint64 // sampled accesses served this epoch
	total uint64 // cumulative sampled accesses across epochs
	topk  *stats.TopK
}

func newHeatRank(cfg HeatConfig) *heatRank {
	return &heatRank{mask: uint64(1)<<cfg.SampleShift - 1, topk: stats.NewTopK(heatTopK)}
}

// note records one data-path access served by this rank on behalf of
// `src`.
func (r *heatRank) note(src int, b gas.BlockID, read bool) {
	r.n++
	if r.n&r.mask != 0 {
		return
	}
	r.load++
	r.total++
	r.topk.Offer(heatKey(src, b, read), 1)
}

// observe is the sampler's view of one protocol step: the exec of a user
// action (put-shaped; the issuing rank is the one in the parcel's OpID,
// see newOpID) and a one-sided serve (Info = issuing rank << 1 | read),
// both counted at the serving rank.
func (r *heatRank) observe(kind TraceKind, b gas.BlockID, info, opID uint64) {
	switch kind {
	case TraceExec:
		if info >= uint64(firstUserAction) {
			r.note(int(opID>>48)-1, b, false)
		}
	case noteServe:
		r.note(int(info>>1), b, info&1 != 0)
	}
}

// eachHeat runs fn on every rank's tracker, each in one claim of its
// rank; with heat tracking off there is none.
func (w *World) eachHeat(fn func(rank int, r *heatRank)) {
	if !w.HeatEnabled() {
		return
	}
	for rank, l := range w.locs {
		w.claim(rank, func() { fn(rank, l.heat) })
	}
}

// HeatEnabled reports whether the world tracks access heat.
func (w *World) HeatEnabled() bool { return w.cfg.Heat.Enabled }

// HeatSampled returns the cumulative number of sampled accesses since
// Start (across epoch resets). Zero when heat tracking is off.
func (w *World) HeatSampled() (n uint64) {
	w.eachHeat(func(_ int, r *heatRank) { n += r.total })
	return n
}

// HeatLoads returns the sampled accesses served per rank in the current
// epoch (nil when heat tracking is off). loadbal.Imbalance summarizes it.
func (w *World) HeatLoads() []uint64 {
	if !w.HeatEnabled() {
		return nil
	}
	out := make([]uint64, len(w.locs))
	w.eachHeat(func(rank int, r *heatRank) { out[rank] = r.load })
	return out
}

// HeatSamples returns every tracked sketch entry from every rank without
// resetting. Entries for the same (block, src, read) can appear once per
// serving rank (a block that migrated mid-epoch was served by two);
// consumers aggregate by summing.
func (w *World) HeatSamples() (out []HeatSample) {
	w.eachHeat(func(_ int, r *heatRank) {
		for _, it := range r.topk.Items() {
			out = append(out, decodeHeatItem(it))
		}
	})
	return out
}

// HeatEpoch snapshots the current epoch — per-rank sampled loads and all
// sketch entries — and resets both for the next one. This is the policy
// engine's per-epoch read.
func (w *World) HeatEpoch() (loads []uint64, samples []HeatSample) {
	if !w.HeatEnabled() {
		return nil, nil
	}
	loads = make([]uint64, len(w.locs))
	w.eachHeat(func(rank int, r *heatRank) {
		loads[rank], r.load = r.load, 0
		for _, it := range r.topk.Items() {
			samples = append(samples, decodeHeatItem(it))
		}
		r.topk.Reset()
	})
	return loads, samples
}

// HeatTop merges every rank's sketch and returns the hottest entries,
// highest sampled count first, at most k of them (k <= 0 returns all
// merged entries). Read-only; the per-rank sketches keep accumulating.
func (w *World) HeatTop(k int) []HeatSample {
	if !w.HeatEnabled() {
		return nil
	}
	// Merging into a sketch wide enough for every rank's entries keeps
	// the merge lossless (no evictions), so per-entry error bounds carry
	// through intact.
	merged := stats.NewTopK(len(w.locs) * heatTopK)
	w.eachHeat(func(_ int, r *heatRank) { merged.Merge(r.topk) })
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
