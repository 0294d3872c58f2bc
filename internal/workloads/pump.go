// Package workloads implements the benchmark applications the evaluation
// drives through the runtime: GUPS-style random updates, pointer chasing,
// breadth-first search over a synthetic graph, a 1-D stencil, and a
// skewed histogram. Each workload is written purely against the runtime's
// public operations (parcels, LCOs, one-sided ops, migration), so its
// performance differences across address-space modes come from the system
// under test, not from the workload code.
//
// Workload state follows the runtime's ownership rule: a rank's key
// streams, window counters and scratch parcels are touched only by that
// rank's token holder or DES events, the driver sets a workload's shared
// fields only between runs, and it reads or writes block data only
// through World.Block. No workload takes a lock.
package workloads

import (
	"fmt"

	"nmvgas/internal/gas"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
)

// Pump drives a fixed number of asynchronous operations per rank while
// keeping a bounded number outstanding — the standard way throughput
// benchmarks saturate a network without unbounded queueing. Each
// operation's completion re-arms the pump, so the window refills itself
// until the per-rank quota is met; a final gate fires when every rank
// finishes.
type Pump struct {
	w    *runtime.World
	act  parcel.ActionID
	st   []pumpRank // st[r] is rank r's: written by the driver only between runs
	gate *runtime.LCORef

	// Issue sends the seq-th operation from rank, on rank. The
	// operation's completion must step the pump: a parcel's continuation
	// is (ContAction, ContTarget(rank)) — use Wire.
	Issue func(rank, seq int)
}

type pumpRank struct {
	issued, completed, target int
}

// NewPump registers the pump's re-arm action under name (unique per
// world). Call before World.Start, set Issue before Run.
func NewPump(w *runtime.World, name string) *Pump {
	p := &Pump{w: w, st: make([]pumpRank, w.Ranks())}
	p.act = w.Register(name, func(c *runtime.Ctx) { p.onDone(c.Rank()) })
	return p
}

// Wire returns the continuation (action, target) the Issue callback must
// attach to every operation it sends from rank.
func (p *Pump) Wire(rank int) (parcel.ActionID, gas.GVA) {
	return p.act, p.w.LocalityGVA(rank)
}

// onDone runs on rank when one of its operations completes: as the
// registered continuation of a parcel, or called by a one-sided op's
// completion callback.
func (p *Pump) onDone(rank int) {
	st := &p.st[rank]
	st.completed++
	if st.issued < st.target {
		st.issued++
		p.Issue(rank, st.issued-1)
		return
	}
	if st.completed == st.target {
		p.w.Locality(rank).SendParcel(&parcel.Parcel{Action: runtime.ALCOSet, Target: p.gate.G})
	}
}

// Run primes `window` operations on every rank and returns a gate that
// fires when each rank has completed perRank operations.
func (p *Pump) Run(perRank, window int) (*runtime.LCORef, error) {
	if p.Issue == nil {
		return nil, fmt.Errorf("workloads: pump has no Issue callback")
	}
	if perRank < 1 || window < 1 {
		return nil, fmt.Errorf("workloads: pump needs perRank>=1 and window>=1, got %d/%d", perRank, window)
	}
	window = min(window, perRank)
	p.gate = p.w.NewAndGate(0, p.w.Ranks())
	for r := range p.st {
		p.st[r] = pumpRank{issued: window, target: perRank}
		p.w.Proc(r).Run(func() {
			for i := 0; i < window; i++ {
				p.Issue(r, i)
			}
		})
	}
	return p.gate, nil
}

// drive runs perRank operations from every rank and waits for them all:
// the Run of every pumped workload. It returns the operation count.
func (p *Pump) drive(perRank, window int) (int, error) {
	gate, err := p.Run(perRank, window)
	if err != nil {
		return 0, err
	}
	if _, err := p.w.Wait(gate); err != nil {
		return 0, err
	}
	return perRank * p.w.Ranks(), nil
}

// at runs fn on the data at g through World.Block, the driver's one door
// to block data, and panics if g's block is gone: the driver-side reads
// whose signatures carry no error.
func at(w *runtime.World, g gas.GVA, fn func(data []byte)) {
	if err := w.Block(g, fn); err != nil {
		panic(err)
	}
}
