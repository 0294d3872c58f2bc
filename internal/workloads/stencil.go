package workloads

import (
	"fmt"
	"math"
	"sync"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
)

// Stencil is a 1-D heat-diffusion kernel over a blocked distribution.
// Each timestep runs two phases per block, each driven by one parcel to
// the block's current owner:
//
//  1. halo: fetch the neighbouring blocks' edge cells with one-sided
//     gets and stash them (no block is written during this phase, so the
//     exchange reads a consistent timestep);
//  2. compute: apply the three-point update using the stashed halos and
//     charge the simulated compute cost, scaled by the owner rank's
//     slowdown factor.
//
// Per-rank slowdown factors model heterogeneous nodes; the adaptive
// variant migrates blocks from slow ranks to fast ones between steps,
// which only the AGAS modes can do.
type Stencil struct {
	w       *runtime.World
	halo    parcel.ActionID
	compute parcel.ActionID
	lay     gas.Layout
	perB    uint32 // cells per block

	mu    sync.Mutex
	slow  []float64    // per-rank compute multiplier (1.0 = nominal)
	cost  netsim.VTime // simulated cost per cell at multiplier 1
	halos map[uint32][2]float64
}

const (
	stencilAlpha = 0.25
	stencilEdge  = 0.0 // fixed boundary value
)

// NewStencil registers the stencil actions. Call before World.Start.
func NewStencil(w *runtime.World, name string) *Stencil {
	s := &Stencil{w: w, halos: make(map[uint32][2]float64)}
	s.halo = w.Register(name+".halo", s.onHalo)
	s.compute = w.Register(name+".compute", s.onCompute)
	return s
}

// Setup allocates nblocks blocks of perBlock float64 cells, blocked
// distribution, with a hot spike in the middle, and sets per-rank
// slowdown factors (nil means all 1.0).
func (s *Stencil) Setup(perBlock, nblocks uint32, slow []float64, cellCost netsim.VTime) error {
	if perBlock < 2 {
		return fmt.Errorf("workloads: stencil needs >=2 cells per block")
	}
	lay, err := s.w.AllocBlocked(0, perBlock*8, nblocks)
	if err != nil {
		return err
	}
	s.lay = lay
	s.perB = perBlock
	s.cost = cellCost
	if slow == nil {
		slow = make([]float64, s.w.Ranks())
		for i := range slow {
			slow[i] = 1
		}
	}
	if len(slow) != s.w.Ranks() {
		return fmt.Errorf("workloads: %d slow factors for %d ranks", len(slow), s.w.Ranks())
	}
	s.slow = slow
	// Initial condition: unit spike in the middle cell.
	mid := uint64(nblocks) * uint64(perBlock) / 2
	s.writeCell(mid, 1.0)
	return nil
}

func (s *Stencil) cellAddr(i uint64) gas.GVA { return s.lay.At(i * 8) }

func (s *Stencil) writeCell(i uint64, v float64) {
	g := s.cellAddr(i)
	blk := s.mustFind(g.Block())
	copy(blk.Data[g.Offset():], parcel.PutU64(nil, math.Float64bits(v)))
}

// Cell reads cell i wherever its block lives (driver-side verification).
func (s *Stencil) Cell(i uint64) float64 {
	g := s.cellAddr(i)
	blk := s.mustFind(g.Block())
	return math.Float64frombits(parcel.U64(blk.Data, int(g.Offset())))
}

// Cells returns the total cell count.
func (s *Stencil) Cells() uint64 { return uint64(s.lay.NBlocks) * uint64(s.perB) }

// Sum returns the total heat (conserved away from the boundary).
func (s *Stencil) Sum() float64 {
	var sum float64
	for i := uint64(0); i < s.Cells(); i++ {
		sum += s.Cell(i)
	}
	return sum
}

// onHalo fetches both neighbour edge cells and stashes them for the
// compute phase. Payload: block index u32, gate GVA u64.
func (s *Stencil) onHalo(c *runtime.Ctx) {
	d := parcel.U32(c.P.Payload, 0)
	gate := gas.GVA(parcel.U64(c.P.Payload, 4))
	if c.Local(s.lay.BlockAt(d)) == nil {
		panic("stencil: halo ran against non-resident block")
	}
	var left, right float64 = stencilEdge, stencilEdge
	need, done := 0, 0
	if d > 0 {
		need++
	}
	if d+1 < s.lay.NBlocks {
		need++
	}
	finish := func() {
		s.mu.Lock()
		s.halos[d] = [2]float64{left, right}
		s.mu.Unlock()
		c.ContinueTo(gate, nil)
	}
	if need == 0 {
		finish()
		return
	}
	onOne := func() {
		if done++; done == need {
			finish()
		}
	}
	if d > 0 {
		c.Get(s.lay.BlockAt(d-1).WithOffset((s.perB-1)*8), 8, func(b []byte) {
			left = math.Float64frombits(parcel.U64(b, 0))
			onOne()
		})
	}
	if d+1 < s.lay.NBlocks {
		c.Get(s.lay.BlockAt(d+1), 8, func(b []byte) {
			right = math.Float64frombits(parcel.U64(b, 0))
			onOne()
		})
	}
}

// onCompute applies the update using the stashed halos.
func (s *Stencil) onCompute(c *runtime.Ctx) {
	d := parcel.U32(c.P.Payload, 0)
	gate := gas.GVA(parcel.U64(c.P.Payload, 4))
	data := c.Local(s.lay.BlockAt(d))
	if data == nil {
		panic("stencil: compute ran against non-resident block")
	}
	s.mu.Lock()
	h := s.halos[d]
	mult := s.slow[c.Rank()]
	s.mu.Unlock()

	n := int(s.perB)
	cells := make([]float64, n)
	for i := 0; i < n; i++ {
		cells[i] = math.Float64frombits(parcel.U64(data, i*8))
	}
	for i := 0; i < n; i++ {
		l, r := h[0], h[1]
		if i > 0 {
			l = cells[i-1]
		}
		if i < n-1 {
			r = cells[i+1]
		}
		nv := cells[i] + stencilAlpha*(l-2*cells[i]+r)
		copy(data[i*8:], parcel.PutU64(nil, math.Float64bits(nv)))
	}
	c.Charge(netsim.VTime(float64(s.cost) * float64(n) * mult))
	c.ContinueTo(gate, nil)
}

// phase sends one action per block and waits for all contributions.
func (s *Stencil) phase(act parcel.ActionID) error {
	gate := s.w.NewAndGate(0, int(s.lay.NBlocks))
	for d := uint32(0); d < s.lay.NBlocks; d++ {
		payload := parcel.PutU32(nil, d)
		payload = parcel.PutU64(payload, uint64(gate.G))
		s.w.Proc(0).Invoke(s.lay.BlockAt(d), act, payload)
	}
	_, err := s.w.Wait(gate)
	return err
}

// Step advances every block by one timestep.
func (s *Stencil) Step() error {
	if err := s.phase(s.halo); err != nil {
		return err
	}
	return s.phase(s.compute)
}

// Run advances steps timesteps.
func (s *Stencil) Run(steps int) error {
	for i := 0; i < steps; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// AdaptPartition migrates blocks so per-rank block counts are inversely
// proportional to the slowdown factors (a slow rank keeps fewer blocks).
// Only meaningful under the AGAS modes.
func (s *Stencil) AdaptPartition(from int) error {
	s.mu.Lock()
	inv := make([]float64, len(s.slow))
	var sum float64
	for r, f := range s.slow {
		inv[r] = 1 / f
		sum += inv[r]
	}
	s.mu.Unlock()

	n := s.lay.NBlocks
	counts := make([]uint32, len(inv))
	var assigned uint32
	for r := range inv {
		counts[r] = uint32(float64(n) * inv[r] / sum)
		assigned += counts[r]
	}
	for r := 0; assigned < n; r = (r + 1) % len(counts) {
		counts[r]++
		assigned++
	}
	// Assign blocks contiguously in index order (preserves halo
	// locality) and migrate the ones whose target differs.
	var futs []*runtime.LCORef
	d := uint32(0)
	for r, cnt := range counts {
		for i := uint32(0); i < cnt; i++ {
			g := s.lay.BlockAt(d)
			if !s.residentAt(g.Block(), r) {
				futs = append(futs, s.w.Proc(from).Migrate(g, r))
			}
			d++
		}
	}
	for _, f := range futs {
		if _, err := s.w.Wait(f); err != nil {
			return err
		}
	}
	return nil
}

func (s *Stencil) residentAt(b gas.BlockID, r int) bool {
	_, ok := s.w.Locality(r).Store().Get(b)
	return ok
}

func (s *Stencil) mustFind(b gas.BlockID) *gas.Block {
	for r := 0; r < s.w.Ranks(); r++ {
		if blk, ok := s.w.Locality(r).Store().Get(b); ok {
			return blk
		}
	}
	panic(fmt.Sprintf("stencil: block %d unreachable", b))
}
