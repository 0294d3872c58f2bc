// Package collective builds tree-structured collective operations —
// broadcast, reduce, barrier — from parcels and LCOs. Nothing here
// touches the network layer directly: collectives are *applications* of
// the message-driven runtime, so their cost differences across GAS modes
// come out of the same translation machinery the experiments measure.
package collective

import (
	"nmvgas/internal/gas"
	"nmvgas/internal/lco"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
)

// Ops holds the registered collective actions for one world. Create it
// with New before World.Start.
type Ops struct {
	w     *runtime.World
	bcast parcel.ActionID
}

// bcast payload layout:
//
//	0..3   lo (uint32)           — subtree range [lo, hi)
//	4..7   hi (uint32)
//	8..9   user action (uint16)
//	10..17 gather LCO GVA (uint64)
//	18..   user payload
const bcastHdr = 18

// New registers the collective plumbing actions on w. Must run before
// w.Start.
func New(w *runtime.World) *Ops {
	o := &Ops{w: w}
	o.bcast = w.Register("collective.bcast", o.bcastNode)
	return o
}

// bcastNode runs at the first rank of its subtree range: execute the user
// action locally (continuation to the gather LCO), then fan out to two
// child subtrees.
func (o *Ops) bcastNode(c *runtime.Ctx) {
	p := c.P.Payload
	lo := parcel.U32(p, 0)
	hi := parcel.U32(p, 4)
	userAct := parcel.ActionID(uint16(p[8]) | uint16(p[9])<<8)
	gather := gas.GVA(parcel.U64(p, 10))
	userPayload := p[bcastHdr:]

	// Run the user action on this locality, wired to the gather LCO.
	c.CallCC(o.w.LocalityGVA(c.Rank()), userAct, userPayload, runtime.ALCOSet, gather)

	// Fan out: split (lo, hi) minus self into two halves.
	childLo := lo + 1
	if childLo >= hi {
		return
	}
	mid := (childLo + hi + 1) / 2
	o.sendRange(c, childLo, mid, p)
	o.sendRange(c, mid, hi, p)
}

func (o *Ops) sendRange(c *runtime.Ctx, lo, hi uint32, orig []byte) {
	if lo >= hi {
		return
	}
	p := append([]byte(nil), orig...)
	copy(p[0:], parcel.PutU32(nil, lo))
	copy(p[4:], parcel.PutU32(nil, hi))
	c.Call(o.w.LocalityGVA(int(lo)), o.bcast, p)
}

func (o *Ops) encodeBcast(userAct parcel.ActionID, gather gas.GVA, payload []byte) []byte {
	p := make([]byte, 0, bcastHdr+len(payload))
	p = parcel.PutU32(p, 0)
	p = parcel.PutU32(p, uint32(o.w.Ranks()))
	p = append(p, byte(userAct), byte(userAct>>8))
	p = parcel.PutU64(p, uint64(gather))
	return append(p, payload...)
}

// start launches the tree from rank `from` with a fresh gather LCO.
func (o *Ops) start(from int, userAct parcel.ActionID, payload []byte, gatherObj *runtime.LCORef) {
	o.w.Proc(from).Invoke(o.w.LocalityGVA(0), o.bcast, o.encodeBcast(userAct, gatherObj.G, payload))
}

// Broadcast runs action once on every locality. The returned gate fires
// once every locality's action has continued (actions must call
// ctx.Continue, possibly with nil).
func (o *Ops) Broadcast(from int, action parcel.ActionID, payload []byte) *runtime.LCORef {
	gate := o.w.NewAndGate(from, o.w.Ranks())
	o.start(from, action, payload, gate)
	return gate
}

// Reduce runs action once on every locality and folds the continuation
// values through comb. The returned LCO fires with the folded value.
func (o *Ops) Reduce(from int, action parcel.ActionID, payload []byte, comb lco.Combiner) *runtime.LCORef {
	red := o.w.NewReduce(from, o.w.Ranks(), comb)
	o.start(from, action, payload, red)
	return red
}

// Barrier returns a gate that fires when every locality has processed a
// no-op — a driver-level barrier.
func (o *Ops) Barrier(from int) *runtime.LCORef {
	return o.Broadcast(from, runtime.ANop, nil)
}
