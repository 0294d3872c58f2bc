package runtime

import (
	"sync"
	"sync/atomic"

	"nmvgas/internal/gas"
	"nmvgas/internal/lco"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// Ctx is the execution context handed to an action. It identifies the
// parcel being executed and provides the non-blocking operations an
// action may perform: sending parcels, one-sided memory ops, touching
// resident block data, migration, and continuation delivery.
//
// A locality runs every action on its one Ctx. Its locality half outlives
// the action: a callback the action leaves behind may keep c and use any
// method but Continue. P ends with the action (nil after it), and
// P.Payload may be a pooled wire buffer recycled as it returns: copy it.
type Ctx struct {
	l *Locality
	P *parcel.Parcel
}

// Rank returns the executing locality's rank.
func (c *Ctx) Rank() int { return c.l.rank }

// Ranks returns the world size.
func (c *Ctx) Ranks() int { return c.l.w.cfg.Ranks }

// World returns the owning world.
func (c *Ctx) World() *World { return c.l.w }

// Now returns the simulated time of the running event on this rank's
// engine (0 on the goroutine engine).
func (c *Ctx) Now() netsim.VTime { return c.l.exec.now() }

// Charge accounts d of simulated compute time to this locality's host
// CPU. No-op on the goroutine engine, where compute costs are real.
func (c *Ctx) Charge(d netsim.VTime) { c.l.exec.Charge(d) }

// Local returns the data of a block resident on this locality from g's
// offset on, or nil if the block is absent, mid-migration, not a data
// block, or shorter than the offset. The slice aliases block storage:
// actions mutate it to update the block.
func (c *Ctx) Local(g gas.GVA) []byte {
	b := g.Block()
	if c.l.moveOf(b) != nil {
		return nil
	}
	blk, ok := c.l.store.Get(b)
	if !ok || blk.Kind != gas.KindData || int(g.Offset()) > len(blk.Data) {
		return nil
	}
	return blk.Data[g.Offset():]
}

// NewAndGate creates an n-input gate LCO on this locality, installed in
// the running action's own turn, so the action may hand its address out
// at once (World.NewAndGate claims the rank, which an action must not).
// World.FreeLCO frees it, from here or from its OnFire.
func (c *Ctx) NewAndGate(n int) *LCORef { return c.l.w.newLCO(c.l.rank, lco.NewAndGate(n), inRank) }

// Send routes a fully formed parcel.
func (c *Ctx) Send(p *parcel.Parcel) { c.l.SendParcel(p) }

// Call sends an action invocation with no continuation.
func (c *Ctx) Call(target gas.GVA, action parcel.ActionID, payload []byte) {
	c.l.SendParcel(&parcel.Parcel{Action: action, Target: target, Payload: payload})
}

// CallCC sends an action invocation whose result is delivered to cont
// (usually an LCO address) via contAction.
func (c *Ctx) CallCC(target gas.GVA, action parcel.ActionID, payload []byte, contAction parcel.ActionID, cont gas.GVA) {
	c.l.SendParcel(&parcel.Parcel{
		Action: action, Target: target, Payload: payload,
		CAction: contAction, CTarget: cont,
	})
}

// Continue delivers data to the executing parcel's continuation, if any.
// A parcel without a continuation *address* has nowhere to deliver to —
// the result is dropped — even if a continuation action is set. Only the
// action itself may continue: afterwards P is nil (see Ctx).
func (c *Ctx) Continue(data []byte) { c.l.continueTo(c.P.CAction, c.P.CTarget, data) }

// continueTo delivers data to a continuation: act (lco.set when nil) at
// cont, or nowhere when cont is null.
func (l *Locality) continueTo(act parcel.ActionID, cont gas.GVA, data []byte) {
	if cont.IsNull() {
		return
	}
	if act == parcel.NilAction {
		act = ALCOSet
	}
	l.SendParcel(&parcel.Parcel{Action: act, Target: cont, Payload: data})
}

// ContinueTo delivers data to an explicit LCO address with lco.set.
func (c *Ctx) ContinueTo(target gas.GVA, data []byte) {
	c.l.SendParcel(&parcel.Parcel{Action: ALCOSet, Target: target, Payload: data})
}

// Put issues a one-sided write; done (optional) runs on this locality at
// remote completion.
func (c *Ctx) Put(dst gas.GVA, data []byte, done func()) { c.l.PutAsync(dst, data, done) }

// Get issues a one-sided read; done runs on this locality with the data.
func (c *Ctx) Get(src gas.GVA, n uint32, done func(data []byte)) { c.l.GetAsync(src, n, done) }

// Migrate moves a block; status is delivered to cont (an LCO address).
func (c *Ctx) Migrate(g gas.GVA, to int, cont gas.GVA) {
	c.l.MigrateAsync(g, to, ALCOSet, cont)
}

// Proc is the driver-side handle for issuing operations "from" a
// locality, from any goroutine, with the same semantics on both engines:
// methods schedule their work onto the locality's executor, except where
// the goroutine engine's one-sided ops claim its token and issue inline
// (so the locality's own execution context must not call those).
type Proc struct {
	l *Locality
}

// Proc returns the driver handle for rank.
func (w *World) Proc(rank int) *Proc { return &w.locs[rank].proc }

// Rank returns the handle's rank.
func (p *Proc) Rank() int { return p.l.rank }

// Run schedules fn to execute in this locality's context. Drivers use it
// to issue batches of operations with correct engine semantics.
func (p *Proc) Run(fn func()) { p.l.exec.Exec(0, fn) }

// Call invokes action at target and returns a future that fires with the
// action's continuation value.
func (p *Proc) Call(target gas.GVA, action parcel.ActionID, payload []byte) *LCORef {
	fut := p.l.w.NewFuture(p.l.rank)
	p.Run(func() {
		p.l.SendParcel(&parcel.Parcel{
			Action: action, Target: target, Payload: payload,
			CAction: ALCOSet, CTarget: fut.G,
		})
	})
	return fut
}

// Invoke sends an action with no result.
func (p *Proc) Invoke(target gas.GVA, action parcel.ActionID, payload []byte) {
	p.Run(func() {
		p.l.SendParcel(&parcel.Parcel{Action: action, Target: target, Payload: payload})
	})
}

// Put writes data at dst, returning a future that fires (with nil) at
// remote completion.
func (p *Proc) Put(dst gas.GVA, data []byte) *LCORef {
	fut := p.l.w.NewFuture(p.l.rank)
	buf := append([]byte(nil), data...)
	p.Run(func() {
		p.l.PutAsync(dst, buf, func() {
			if err := fut.obj.Set(nil); err != nil {
				p.l.w.fail("put completion: %v", err)
			}
		})
	})
	return fut
}

// Get reads n bytes at src, returning a future that fires with the data.
func (p *Proc) Get(src gas.GVA, n uint32) *LCORef {
	fut := p.l.w.NewFuture(p.l.rank)
	p.Run(func() {
		p.l.GetAsync(src, n, func(data []byte) {
			if err := fut.obj.Set(data); err != nil {
				p.l.w.fail("get completion: %v", err)
			}
		})
	})
	return fut
}

// PutAsync issues a one-sided write "from" this locality without a
// future; done (optional) runs on the locality at remote completion. On
// the goroutine engine the caller issues inline under the locality's
// token, waiting out a busy holder's turn (goExec.putAsync), so drivers
// pipeline puts with no mailbox round trip per op.
func (p *Proc) PutAsync(dst gas.GVA, data []byte, done func()) { p.l.exec.putAsync(dst, data, done) }

// PutWait writes data at dst and blocks the driver until the remote
// completion (advancing simulated time under the DES engine).
func (p *Proc) PutWait(dst gas.GVA, data []byte) {
	p.await("PutWait", rmaReq{kind: kPutReq, target: dst, data: data}, nil)
}

// GetWaitInto reads len(buf) bytes at src into buf, blocking until the
// reply.
func (p *Proc) GetWaitInto(src gas.GVA, buf []byte) {
	p.await("GetWaitInto", rmaReq{kind: kGetReq, pooled: true, n: uint32(len(buf)), target: src}, buf)
}

// PutVecWait writes all segs into the block at dst as one request with
// one ack and blocks until the completion.
func (p *Proc) PutVecWait(dst gas.GVA, segs []PutSeg) {
	p.await("PutVecWait", rmaReq{kind: kPutVec, target: dst, psegs: segs}, nil)
}

// GetVecWaitInto gathers all segs from the block at src into buf (the
// fragments concatenated in order; len(buf) must equal the sum of seg
// lengths) and blocks until the reply.
func (p *Proc) GetVecWaitInto(src gas.GVA, segs []GetSeg, buf []byte) {
	p.await("GetVecWaitInto", rmaReq{kind: kGetVec, pooled: true, target: src, gsegs: segs}, buf)
}

// waiter is a blocked caller's completion slot (Proc.await), pooled. Its
// state is a handshake: whichever of completeOp and the caller moves it
// off waitPending first sets the order. A completion that wins (it ran
// inline on the caller's goroutine, or on DES) leaves ch alone; a caller
// that wins parks on ch, and completeOp wakes it with the one signal ch
// has room for, so ch is never closed.
type waiter struct {
	state atomic.Uint32 // waitPending, waitCompleted or waitParked
	ch    chan struct{} // wakes a parked caller
	into  []byte        // reads: where the completion copies the data
}

const waitPending, waitCompleted, waitParked = 0, 1, 2

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan struct{}, 1)} }}

// await issues r (Executor.awaitOp) and blocks until its completion has
// copied a read's data into into; it is the one place an op is marked
// waited. Against idle owners on the goroutine engine the op runs from
// issue through serve to completion with no hand-off, and the caller
// never parks.
func (p *Proc) await(op string, r rmaReq, into []byte) {
	wt := waiterPool.Get().(*waiter)
	wt.into = into
	wt.state.Store(waitPending)
	p.l.exec.awaitOp(op, r, wt)
	if wt.state.CompareAndSwap(waitPending, waitParked) {
		<-wt.ch
	}
	wt.into = nil
	waiterPool.Put(wt)
}

// Migrate moves the block at g to rank to, returning a future that fires
// with the status record.
func (p *Proc) Migrate(g gas.GVA, to int) *LCORef {
	fut := p.l.w.NewFuture(p.l.rank)
	p.Run(func() {
		p.l.MigrateAsync(g, to, ALCOSet, fut.G)
	})
	return fut
}

// MigrateStatus decodes a Migrate future's value.
func MigrateStatus(v []byte) int64 {
	if len(v) < 8 {
		return -1
	}
	return parcel.I64(v, 0)
}
