package runtime

import (
	"fmt"
	"io"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/lco"
	"nmvgas/internal/netsim"
)

// desNet is the discrete-event engine's port: the simulated fabric,
// whose NICs carry every message at the model's charges, on the engine
// that runs it (Fabric.Eng: a classic engine, or the driver façade of the
// sharded one). Its clock, timers and waits are engine events.
type desNet struct {
	*netsim.Fabric
	w *World
}

func newDESNet(w *World) *desNet {
	cfg := w.cfg
	var eng *netsim.Engine
	switch {
	case cfg.Shards > 0:
		shards := cfg.Shards
		if cfg.reliable() {
			// The reliable layer's exactly-once store is keyed per
			// (source, channel) stream, which different receiving ranks
			// touch inside one window (host forwards, re-resolution,
			// cumulative acks): state the rank partition cannot isolate.
			// Such a world runs the windowed engine on one shard,
			// bit-identical to every shard count by construction;
			// fault-free runs keep their parallel windows.
			shards = 1
		}
		// Conservative lookahead: no event crosses between the
		// topology's domains sooner than the cheapest path between them
		// at the model's link latency. See netsim.ParEngine.
		eng = netsim.NewParEngine(cfg.Ranks, shards, cfg.Topology, cfg.Model.Latency)
	default:
		eng = netsim.NewEngine()
	}
	d := &desNet{w: w, Fabric: netsim.NewFabric(eng, netsim.FabricConfig{
		Ranks:       cfg.Ranks,
		Model:       cfg.Model,
		GVARouting:  w.caps.NICTranslation,
		Policy:      cfg.Policy,
		NICTableCap: cfg.NICTableCap,
		Topology:    cfg.Topology,
		Faults:      cfg.Faults,
	})}
	for r, l := range w.locs {
		ex := &desExec{eng: eng.RankEngine(r), world: eng, rank: r, l: l}
		l.exec, l.free = ex, &ex.eng.Free
		nic := d.NIC(r)
		l.wireNIC(&nic.NICCore, &nic.TransState)
		nic.HostDeliver = func(m *netsim.Message) {
			ex.ExecMsg(cfg.Model.ORecv+cfg.Model.HandlerDispatch, opHostMsg, m)
		}
		nic.DMADeliver = l.onDMA
	}
	return d
}

// The clock reads the driver's engine: under sharding the façade, whose
// Now is the last barrier's time.
func (d *desNet) start()                           {}
func (d *desNet) stop()                            { d.Eng.Shutdown() }
func (d *desNet) now() netsim.VTime                { return d.Eng.Now() }
func (d *desNet) latNow() int64                    { return int64(d.Eng.Now()) }
func (d *desNet) after(dt netsim.VTime, fn func()) { d.Eng.After(dt, fn) }
func (d *desNet) quiet() bool                      { return d.Eng.Pending() == 0 }
func (d *desNet) queueDepthsInto(counts []int)     { d.Eng.PendingByRank(counts) }
func (d *desNet) hops(a, b int) int                { return d.Topo.Hops(a, b) }
func (d *desNet) faultStats() netsim.FaultStats    { return d.FaultSnapshot() }
func (d *desNet) fabric() *netsim.Fabric           { return d.Fabric }

func (d *desNet) dump(out io.Writer) {
	fmt.Fprintf(out, "engine: now=%v pending_events=%d processed=%d\n", d.Eng.Now(), d.Eng.Pending(), d.Eng.Processed())
}

// wait advances simulated time until obj fires.
func (d *desNet) wait(obj lco.LCO, g gas.GVA) ([]byte, error) {
	d.w.pulseResume()
	if !d.Eng.RunUntil(obj.Ready) {
		return nil, fmt.Errorf("%w: event queue drained with LCO %v unset", ErrDeadlock, g)
	}
	return obj.Value(), nil
}

// await drives the engine (keeping the pulse armed) until cond holds or
// the queue drains; timeout has no meaning in simulated time. The drain
// checks cond every 64 events: conditions that take a lock and flip
// thousands of events apart make a per-event probe pure overhead, and
// nothing here measures the stopping time.
func (d *desNet) await(cond func() bool, _ time.Duration) bool {
	if cond() {
		return true
	}
	d.w.pulseResume()
	d.Eng.RunUntilStride(cond, 64)
	return cond()
}

// desExec models one host core on the discrete-event engine. eng is the
// rank's engine face (its shard engine under the parallel engine), so
// host tasks land on the rank's own timeline and the busy horizon is
// only ever touched from that rank's event context; world is the engine
// the driver holds (the façade under sharding, eng itself otherwise).
type desExec struct {
	eng   *netsim.Engine
	world *netsim.Engine
	rank  int
	busy  netsim.VTime
	l     *Locality // typed steps run here
}

// reserve claims the host core for cost and returns the completion time.
func (e *desExec) reserve(cost netsim.VTime) netsim.VTime {
	e.busy = max(e.busy, e.eng.Now()) + cost
	return e.busy
}

func (e *desExec) Exec(cost netsim.VTime, fn func()) {
	e.eng.AtRank(e.rank, e.reserve(cost), fn)
}

func (e *desExec) ExecMsg(cost netsim.VTime, op msgOp, m *netsim.Message) {
	e.eng.AtRankMsg(e.rank, e.reserve(cost), e, uint8(op), m)
}

func (e *desExec) After(d netsim.VTime, fn func()) { e.eng.AfterRank(e.rank, d, fn) }

func (e *desExec) claim(fn func()) bool { fn(); return true }
func (e *desExec) hand(fn func()) bool  { fn(); return true }

// HandleMsg runs a typed event step (netsim.MsgSink).
func (e *desExec) HandleMsg(op uint8, m *netsim.Message) { e.l.handleMsg(msgOp(op), m) }

func (e *desExec) Charge(extra netsim.VTime) {
	if extra >= 0 {
		e.busy = max(e.busy, e.eng.Now()) + extra
	}
}

// The rank's clocks all read the running event's time on its own engine
// face; global defers fn to the next merge barrier (a classic engine has
// none and runs fn at once).
func (e *desExec) now() netsim.VTime    { return e.eng.Now() }
func (e *desExec) simNow() netsim.VTime { return e.eng.Now() }
func (e *desExec) latNow() int64        { return int64(e.eng.Now()) }
func (e *desExec) global(fn func())     { e.eng.AtBarrier(fn) }

// memberStep is a host task, or under sharding (a rank face that is not
// the driver's engine) a barrier task.
func (e *desExec) memberStep(fn func()) bool {
	if e.eng != e.world {
		e.world.After(0, fn)
	} else {
		e.Exec(0, fn)
	}
	return true
}

// putAsync schedules the issue like every other driver operation, on a
// copy of data.
func (e *desExec) putAsync(dst gas.GVA, data []byte, done func()) {
	buf := append([]byte(nil), data...)
	e.Exec(0, func() { e.l.PutAsync(dst, buf, done) })
}

// awaitOp schedules the issue and runs the engine until the completion;
// like Wait it is a driver entry point, so it re-arms a parked pulse
// first (pulseResume).
func (e *desExec) awaitOp(op string, r rmaReq, wt *waiter) {
	e.Exec(0, func() { r := r; e.l.issue(&r, opState{wait: wt}) }) // one closure, r by value
	w := e.l.w
	w.pulseResume()
	if !e.world.RunUntil(func() bool { return wt.state.Load() == waitCompleted }) {
		w.fail("%s: event queue drained before completion", op)
	}
}
