package workloads

import (
	"fmt"
	"math/rand"

	"nmvgas/internal/gas"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
)

// Chase is the pointer-chasing benchmark: a linked ring of nodes, one per
// block, threaded randomly across the whole machine. A chase parcel hops
// node to node, so end-to-end time divided by hops is the per-hop remote
// reference cost. After consolidating the ring onto one locality with
// migration, the same chase runs at local dispatch cost — the
// "locality can be created" argument for AGAS.
type Chase struct {
	w    *runtime.World
	step parcel.ActionID
	lay  gas.Layout
}

// Node block layout: bytes 0..7 hold the next node's GVA.
const chaseNodeSize = 16

// NewChase registers the chase action. Call before World.Start.
func NewChase(w *runtime.World, name string) *Chase {
	c := &Chase{w: w}
	c.step = w.Register(name+".step", c.onStep)
	return c
}

// Setup builds a ring of n nodes in a random order over a cyclic
// allocation, so consecutive hops almost always change locality.
func (c *Chase) Setup(n uint32, seed int64) error {
	if n < 2 {
		return fmt.Errorf("workloads: chase needs at least 2 nodes")
	}
	lay, err := c.w.AllocCyclic(0, chaseNodeSize, n)
	if err != nil {
		return err
	}
	c.lay = lay
	// Random cyclic permutation: visit order perm[0] → perm[1] → ... →
	// perm[0].
	perm := rand.New(rand.NewSource(seed)).Perm(int(n))
	for i := 0; i < int(n); i++ {
		cur := uint32(perm[i])
		next := uint32(perm[(i+1)%int(n)])
		if err := c.w.Block(lay.BlockAt(cur), func(data []byte) {
			parcel.PutU64(data[:0], uint64(lay.BlockAt(next)))
		}); err != nil {
			return err
		}
	}
	return nil
}

// Layout returns the node allocation.
func (c *Chase) Layout() gas.Layout { return c.lay }

// onStep hops to the next node, decrementing the remaining count; when it
// reaches zero the continuation fires with the landing node's address.
func (c *Chase) onStep(ctx *runtime.Ctx) {
	data := ctx.Local(ctx.P.Target)
	if data == nil {
		panic("chase: step ran against non-resident node")
	}
	remaining := parcel.U64(ctx.P.Payload, 0)
	if remaining == 0 {
		ctx.Continue(parcel.PutU64(nil, uint64(ctx.P.Target)))
		return
	}
	next := gas.GVA(parcel.U64(data, 0))
	ctx.CallCC(next, c.step, parcel.PutU64(nil, remaining-1), ctx.P.CAction, ctx.P.CTarget)
}

// Run chases `hops` pointers starting from node 0, issued from rank
// `from`, and returns the landing node's address.
func (c *Chase) Run(from int, hops uint64) (gas.GVA, error) {
	fut := c.w.Proc(from).Call(c.lay.BlockAt(0), c.step, parcel.PutU64(nil, hops))
	v, err := c.w.Wait(fut)
	if err != nil {
		return gas.Null, err
	}
	return gas.GVA(parcel.U64(v, 0)), nil
}
