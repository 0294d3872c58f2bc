package workloads

import (
	"fmt"
	"math/rand"

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

	lay   gas.Layout // set by Setup, between runs
	bins  uint64
	ranks []histRank // ranks[r] is rank r's
}

// histRank is one rank's key stream and the scratch parcel its adds are
// built in (SendParcel encodes it before it returns).
type histRank struct {
	zip *rand.Zipf
	p   parcel.Parcel
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
	h.lay = lay
	h.bins = uint64(binsPerBlock) * uint64(nblocks)
	h.ranks = make([]histRank, h.w.Ranks())
	for r := range h.ranks {
		rng := rand.New(rand.NewSource(seed + int64(r)*7_919))
		h.ranks[r].zip = rand.NewZipf(rng, skew, 1, h.bins-1)
	}
	return nil
}

// Layout returns the bin allocation.
func (h *Histogram) Layout() gas.Layout { return h.lay }

func (h *Histogram) issue(rank, seq int) {
	st := &h.ranks[rank]
	act, cont := h.pump.Wire(rank)
	st.p = parcel.Parcel{Action: h.add, Target: h.lay.At(st.zip.Uint64() * 8), CAction: act, CTarget: cont}
	h.w.Locality(rank).SendParcel(&st.p)
}

func (h *Histogram) onAdd(c *runtime.Ctx) {
	data := c.Local(c.P.Target)
	if data == nil {
		panic("histogram: add ran against non-resident bin")
	}
	parcel.PutU64(data[:0], parcel.U64(data, 0)+1)
	c.Continue(nil)
}

// Run performs perRank increments from every rank.
func (h *Histogram) Run(perRank, window int) (int, error) { return h.pump.drive(perRank, window) }
