package workloads

import (
	"fmt"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
)

// SSSP is chaotic-relaxation single-source shortest paths — the
// asynchronous, unordered algorithm this research group's runtime papers
// evaluate (no levels, no barriers; every improvement immediately fans
// out). Termination uses a Dijkstra–Scholten-style ack tree built from
// LCOs: each relax parcel acknowledges its sender only after the whole
// subtree of work it caused has acknowledged, so the root future fires
// exactly when the computation has quiesced. This works identically on
// the discrete-event and goroutine engines.
type SSSP struct {
	w    *runtime.World
	g    *Graph
	lay  gas.Layout
	perB uint32

	relax parcel.ActionID

	// RelaxCost models per-edge work, as in BFS.
	RelaxCost netsim.VTime
}

// NewSSSP registers the relax action. Call before World.Start.
func NewSSSP(w *runtime.World, name string) *SSSP {
	s := &SSSP{w: w, RelaxCost: 300 * netsim.Nanosecond}
	s.relax = w.Register(name+".relax", s.onRelax)
	return s
}

// Setup distributes the distance array (4 bytes per vertex).
func (s *SSSP) Setup(g *Graph, perBlock uint32, dist gas.Dist) error {
	if perBlock == 0 || perBlock*4 > gas.MaxBlockSize {
		return fmt.Errorf("workloads: sssp perBlock %d out of range", perBlock)
	}
	if len(g.Weights) != len(g.Targets) {
		return fmt.Errorf("workloads: sssp needs a weighted graph")
	}
	nblocks := (g.N + perBlock - 1) / perBlock
	var lay gas.Layout
	var err error
	switch dist {
	case gas.DistLocal:
		lay, err = s.w.AllocLocal(0, perBlock*4, nblocks)
	case gas.DistBlocked:
		lay, err = s.w.AllocBlocked(0, perBlock*4, nblocks)
	default:
		lay, err = s.w.AllocCyclic(0, perBlock*4, nblocks)
	}
	if err != nil {
		return err
	}
	s.g = g
	s.lay = lay
	s.perB = perBlock
	s.reset()
	return nil
}

func (s *SSSP) reset() {
	for d := uint32(0); d < s.lay.NBlocks; d++ {
		blk := s.mustFind(s.lay.Base.Block() + gas.BlockID(d))
		for i := range blk.Data {
			blk.Data[i] = 0xFF
		}
	}
}

func (s *SSSP) vtxAddr(v uint32) gas.GVA { return s.lay.At(uint64(v) * 4) }

// relax payload: vertex u32, proposed distance u32. The parcel's
// continuation is its ack target.
func (s *SSSP) onRelax(c *runtime.Ctx) {
	v := parcel.U32(c.P.Payload, 0)
	nd := parcel.U32(c.P.Payload, 4)
	data := c.Local(c.P.Target)
	if data == nil {
		panic("sssp: relax ran against non-resident block")
	}
	c.Charge(s.RelaxCost)
	// data is already positioned at v's word (Local applies the GVA
	// offset).
	if nd >= parcel.U32(data, 0) {
		// No improvement: this subtree is empty — ack immediately.
		c.Continue(nil)
		return
	}
	copy(data, parcel.PutU32(nil, nd))

	outs, ws := s.g.OutW(v)
	if len(outs) == 0 {
		c.Continue(nil)
		return
	}
	// Dijkstra–Scholten: ack our sender only when every child subtree
	// has acked into this local gate.
	w := c.World()
	gate := c.NewAndGate(len(outs))
	ackA, ackT := c.P.CAction, c.P.CTarget
	l := c.World().Locality(c.Rank())
	gate.OnFire(func([]byte) {
		w.FreeLCO(gate)
		if ackT.IsNull() {
			return
		}
		act := ackA
		if act == parcel.NilAction {
			act = runtime.ALCOSet
		}
		l.SendParcel(&parcel.Parcel{Action: act, Target: ackT})
	})
	for e, u := range outs {
		payload := parcel.PutU32(nil, u)
		payload = parcel.PutU32(payload, nd+ws[e])
		c.CallCC(s.vtxAddr(u), s.relax, payload, runtime.ALCOSet, gate.G)
	}
}

// Run computes shortest paths from root; the returned count is the number
// of reachable vertices.
func (s *SSSP) Run(root uint32) (int, error) {
	s.reset()
	done := s.w.NewFuture(0)
	payload := parcel.PutU32(nil, root)
	payload = parcel.PutU32(payload, 0)
	s.w.Proc(0).Run(func() {
		s.w.Locality(0).SendParcel(&parcel.Parcel{
			Action: s.relax, Target: s.vtxAddr(root), Payload: payload,
			CAction: runtime.ALCOSet, CTarget: done.G,
		})
	})
	if _, err := s.w.Wait(done); err != nil {
		return 0, err
	}
	reached := 0
	for v := uint32(0); v < s.g.N; v++ {
		if s.Dist(v) != ^uint32(0) {
			reached++
		}
	}
	return reached, nil
}

// Dist reads v's computed distance (driver-side verification).
func (s *SSSP) Dist(v uint32) uint32 {
	g := s.vtxAddr(v)
	blk := s.mustFind(g.Block())
	return parcel.U32(blk.Data, int(g.Offset()))
}

func (s *SSSP) mustFind(b gas.BlockID) *gas.Block {
	for r := 0; r < s.w.Ranks(); r++ {
		if blk, ok := s.w.Locality(r).Store().Get(b); ok {
			return blk
		}
	}
	panic(fmt.Sprintf("sssp: block %d unreachable", b))
}
