package workloads

import (
	"fmt"

	"nmvgas/internal/collective"
	"nmvgas/internal/gas"
	"nmvgas/internal/lco"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
)

// BFS is a level-synchronous distributed breadth-first search. Distances
// live in the global address space (4 bytes per vertex, cyclic blocks);
// every edge relaxation is a parcel to the target vertex's current owner.
// Each level runs in two collective phases:
//
//  1. count: every locality counts the out-edges of frontier vertices in
//     blocks it currently owns (a reduction), so the driver knows exactly
//     how many relax parcels the level will send;
//  2. expand: every locality fires those relax parcels, each continuing
//     into a gate sized by the count.
//
// Ownership is read through residency, so migration-based load balancing
// transparently reshapes who expands what — the property the evaluation
// exercises.
type BFS struct {
	distArray
	ops *collective.Ops

	count  parcel.ActionID
	expand parcel.ActionID
	relax  parcel.ActionID

	// RelaxCost and ScanCost model the per-edge memory-bound work of a
	// real BFS (simulated time charged to the executing host); without
	// them a fully serial placement would look artificially cheap.
	RelaxCost netsim.VTime
	ScanCost  netsim.VTime

	edgesRelaxed uint64
	levels       int
}

const infDist = ^uint32(0)

// NewBFS registers BFS actions. Call before World.Start.
func NewBFS(w *runtime.World, ops *collective.Ops, name string) *BFS {
	b := &BFS{distArray: distArray{w: w}, ops: ops, RelaxCost: 400 * netsim.Nanosecond, ScanCost: 60 * netsim.Nanosecond}
	b.count = w.Register(name+".count", b.onCount)
	b.expand = w.Register(name+".expand", b.onExpand)
	b.relax = w.Register(name+".relax", b.onRelax)
	return b
}

// distArray is a vertex-distance array in the global address space, 4
// bytes per vertex over blocks of perB vertices: BFS's and SSSP's. The
// driver sets it in Setup, between runs.
type distArray struct {
	w    *runtime.World
	g    *Graph
	lay  gas.Layout
	perB uint32 // vertices per block
}

// Setup distributes g's distance array over blocks of perBlock vertices
// with the given initial distribution. DistCyclic is the balanced
// default; DistLocal deliberately starts with everything on rank 0 — the
// pathological placement the rebalancing experiment begins from.
func (a *distArray) Setup(g *Graph, perBlock uint32, dist gas.Dist) error {
	if perBlock == 0 || perBlock*4 > gas.MaxBlockSize {
		return fmt.Errorf("workloads: perBlock %d out of range", perBlock)
	}
	nblocks := (g.N + perBlock - 1) / perBlock
	var lay gas.Layout
	var err error
	switch dist {
	case gas.DistLocal:
		lay, err = a.w.AllocLocal(0, perBlock*4, nblocks)
	case gas.DistBlocked:
		lay, err = a.w.AllocBlocked(0, perBlock*4, nblocks)
	default:
		lay, err = a.w.AllocCyclic(0, perBlock*4, nblocks)
	}
	if err != nil {
		return err
	}
	a.g, a.lay, a.perB = g, lay, perBlock
	return a.reset()
}

// reset writes infinite distance into every word, at each block's owner
// (driver-side setup).
func (a *distArray) reset() error {
	for d := uint32(0); d < a.lay.NBlocks; d++ {
		if err := a.w.Block(a.lay.BlockAt(d), func(data []byte) {
			for i := range data {
				data[i] = 0xFF
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// Layout returns the distance-array allocation.
func (a *distArray) Layout() gas.Layout { return a.lay }

// vtxAddr returns the GAS address of v's distance word.
func (a *distArray) vtxAddr(v uint32) gas.GVA { return a.lay.At(uint64(v) * 4) }

// Dist reads v's computed distance at its block's owner (driver-side
// verification).
func (a *distArray) Dist(v uint32) (d uint32) {
	at(a.w, a.vtxAddr(v), func(data []byte) { d = parcel.U32(data, 0) })
	return d
}

// scanLocal walks the vertices of blocks resident on ctx's locality whose
// distance equals level.
func (b *BFS) scanLocal(ctx *runtime.Ctx, level uint32, fn func(v uint32)) {
	for d := uint32(0); d < b.lay.NBlocks; d++ {
		data := ctx.Local(b.lay.BlockAt(d))
		if data == nil {
			continue
		}
		lo := d * b.perB
		hi := lo + b.perB
		if hi > b.g.N {
			hi = b.g.N
		}
		for v := lo; v < hi; v++ {
			if parcel.U32(data, int(v-lo)*4) == level {
				fn(v)
			}
		}
	}
}

// onCount sums out-degrees of the local frontier (reduction leaf).
func (b *BFS) onCount(c *runtime.Ctx) {
	level := parcel.U32(c.P.Payload, 0)
	var edges int64
	b.scanLocal(c, level, func(v uint32) {
		edges += int64(len(b.g.Out(v)))
	})
	c.Continue(lco.EncodeI64(edges))
}

// onExpand fires a relax parcel per frontier edge, each continuing into
// the level gate carried in the payload.
func (b *BFS) onExpand(c *runtime.Ctx) {
	level := parcel.U32(c.P.Payload, 0)
	gate := gas.GVA(parcel.U64(c.P.Payload, 4))
	b.scanLocal(c, level, func(v uint32) {
		out := b.g.Out(v)
		c.Charge(netsim.VTime(len(out)) * b.ScanCost)
		for _, u := range out {
			c.CallCC(b.vtxAddr(u), b.relax, parcel.PutU32(nil, level+1), runtime.ALCOSet, gate)
		}
	})
	c.Continue(nil)
}

// onRelax claims a vertex for the next level if it is unvisited.
func (b *BFS) onRelax(c *runtime.Ctx) {
	data := c.Local(c.P.Target)
	if data == nil {
		panic("bfs: relax ran against non-resident block")
	}
	c.Charge(b.RelaxCost)
	nd := parcel.U32(c.P.Payload, 0)
	if parcel.U32(data, 0) == infDist {
		parcel.PutU32(data[:0], nd)
	}
	c.Continue(nil)
}

// Run performs a BFS from root and returns (edges relaxed, levels).
func (b *BFS) Run(root uint32) (uint64, int, error) {
	if err := b.reset(); err != nil {
		return 0, 0, err
	}
	b.edgesRelaxed, b.levels = 0, 0
	// Seed the root.
	if _, err := b.w.Wait(b.w.Proc(0).Put(b.vtxAddr(root), parcel.PutU32(nil, 0))); err != nil {
		return 0, 0, err
	}
	for level := uint32(0); ; level++ {
		cnt := b.ops.Reduce(0, b.count, parcel.PutU32(nil, level), lco.SumI64)
		v, err := b.w.Wait(cnt)
		if err != nil {
			return 0, 0, err
		}
		total := lco.DecodeI64(v)
		if total == 0 {
			return b.edgesRelaxed, b.levels, nil
		}
		gate := b.w.NewAndGate(0, int(total))
		payload := parcel.PutU32(nil, level)
		payload = parcel.PutU64(payload, uint64(gate.G))
		bc := b.ops.Broadcast(0, b.expand, payload)
		if _, err := b.w.Wait(bc); err != nil {
			return 0, 0, err
		}
		if _, err := b.w.Wait(gate); err != nil {
			return 0, 0, err
		}
		b.edgesRelaxed += uint64(total)
		b.levels++
	}
}
