package workloads

import (
	"fmt"
	"math/rand"
	"sync"

	"nmvgas/internal/gas"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
)

// Histogram bins skewed keys into a distributed array of uint64 counters.
// Unlike GUPS it is pure increment (commutative), and its Zipf key stream
// concentrates traffic on a few bins — the canonical hot-block scenario
// migration-based placement exploits.
type Histogram struct {
	w    *runtime.World
	add  parcel.ActionID
	pump *Pump

	mu   sync.Mutex
	lay  gas.Layout
	bins uint64
	zips []*rand.Zipf
}

// NewHistogram registers the histogram actions. Call before World.Start.
func NewHistogram(w *runtime.World, name string) *Histogram {
	h := &Histogram{w: w}
	h.add = w.Register(name+".add", h.onAdd)
	h.pump = NewPump(w, name+".pump")
	h.pump.Issue = h.issue
	return h
}

// Setup allocates bins (8 bytes each) over cyclic blocks of binsPerBlock,
// and seeds per-rank Zipf key streams with skew s.
func (h *Histogram) Setup(binsPerBlock, nblocks uint32, skew float64, seed int64) error {
	if skew <= 1 {
		return fmt.Errorf("workloads: zipf skew must be > 1, got %v", skew)
	}
	lay, err := h.w.AllocCyclic(0, binsPerBlock*8, nblocks)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lay = lay
	h.bins = uint64(binsPerBlock) * uint64(nblocks)
	h.zips = h.zips[:0]
	for r := 0; r < h.w.Ranks(); r++ {
		rng := rand.New(rand.NewSource(seed + int64(r)*7_919))
		h.zips = append(h.zips, rand.NewZipf(rng, skew, 1, h.bins-1))
	}
	return nil
}

// Layout returns the bin allocation.
func (h *Histogram) Layout() gas.Layout {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lay
}

func (h *Histogram) issue(rank, seq int) {
	h.mu.Lock()
	bin := h.zips[rank].Uint64()
	target := h.lay.At(bin * 8)
	h.mu.Unlock()
	act, cont := h.pump.Wire(rank)
	h.w.Locality(rank).SendParcel(&parcel.Parcel{
		Action:  h.add,
		Target:  target,
		CAction: act,
		CTarget: cont,
	})
}

func (h *Histogram) onAdd(c *runtime.Ctx) {
	data := c.Local(c.P.Target)
	if data == nil {
		panic("histogram: add ran against non-resident bin")
	}
	copy(data, parcel.PutU64(nil, parcel.U64(data, 0)+1))
	c.Continue(nil)
}

// Run performs perRank increments from every rank.
func (h *Histogram) Run(perRank, window int) (int, error) {
	gate, err := h.pump.Run(perRank, window)
	if err != nil {
		return 0, err
	}
	if _, err := h.w.Wait(gate); err != nil {
		return 0, err
	}
	return perRank * h.w.Ranks(), nil
}
