package runtime

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/lco"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// World is one running system: cfg.Ranks localities, their address-space
// state, and the execution engine that connects them.
type World struct {
	cfg  Config
	caps Caps
	reg  *Registry
	seq  *gas.Sequence

	locs []*Locality
	// net is the engine port, chosen once by NewWorld: the clock, timers,
	// waits and transport of whichever engine runs the world.
	net network

	// Reliable-delivery state (nil unless cfg.reliable()).
	relw *relWorld

	// mem is the elastic-membership table (always present; unarmed until
	// the world kills, retires, or joins a locality).
	mem *membership

	// locBase is the first of the per-locality infrastructure blocks;
	// locality r's block is locBase + r.
	locBase gas.BlockID

	// tracer, when set before Start, observes protocol steps (see
	// trace.go).
	tracer func(TraceEvent)

	// observed is set when any observer is on (tracer, lat or heat):
	// every protocol step's note branches on it and nothing else.
	observed bool

	// epoch anchors every clock of EngineGo, which has no simulated one.
	epoch time.Time

	// lat holds the latency histograms; nil unless cfg.Metrics.
	lat *latencyState

	// replCount is the number of blocks with live replica sets. Every
	// read-side coherence hook gates on it, so unreplicated worlds pay
	// one atomic load and nothing else.
	replCount atomic.Int64

	// pulse drives the periodic control tick and its watchdogs; nil
	// unless cfg.Pulse.Enabled (the disabled hooks pay one nil check —
	// see pulse.go).
	pulse *pulseState

	// migStall, when set via InjectMigrationStall, parks every
	// migration's data-install step so the stall watchdog has a real
	// anomaly to catch.
	migStall atomic.Bool

	started bool
	stopped atomic.Bool
}

// NewWorld builds a world from cfg. Call Register for user actions, then
// Start, before sending traffic.
func NewWorld(cfg Config) (*World, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	bld, err := spaceBuilderFor(cfg.Mode)
	if err != nil {
		return nil, err
	}
	if err := cfg.validate(bld.caps); err != nil {
		return nil, err
	}
	w := &World{cfg: cfg, caps: bld.caps, reg: newRegistry(), seq: gas.NewSequence(), epoch: time.Now()}
	w.registerBuiltins()
	if cfg.Metrics {
		w.lat = newLatencyState()
	}
	w.observed = w.lat != nil || cfg.Heat.Enabled
	if cfg.Pulse.Enabled {
		w.pulse = newPulseState(w, cfg.Pulse)
	}
	if cfg.reliable() {
		w.relw = &relWorld{rx: make([][]relRxState, cfg.Ranks)}
	}
	w.mem = newMembership(w)

	for r := 0; r < cfg.Ranks; r++ {
		w.locs = append(w.locs, newLocality(w, r, bld))
	}

	switch cfg.Engine {
	case EngineDES:
		w.net = newDESNet(w)
	case EngineGo:
		w.net = newChanNet(w)
	default:
		return nil, fmt.Errorf("runtime: unknown engine %d", cfg.Engine)
	}
	// Every NIC table trusts the one membership epoch: a membership
	// change fences them all with one advance.
	for r := range w.locs {
		w.net.State(r, func(st *netsim.TransState) { st.Table.TrustEpoch(&w.mem.epoch) })
	}
	// Per-locality infrastructure blocks: parcels that address "the
	// locality" (collectives wiring, migration control) target these.
	base, err := w.seq.Reserve(uint32(cfg.Ranks))
	if err != nil {
		return nil, err
	}
	w.locBase = base
	for _, l := range w.locs {
		if err := l.store.Insert(w.infraBlock(l.rank)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// infraBlock is a fresh (zeroed) copy of rank's infrastructure block.
func (w *World) infraBlock(rank int) *gas.Block {
	return &gas.Block{ID: w.locBase + gas.BlockID(rank), Kind: gas.KindData, BSize: 64, Data: make([]byte, 64), Home: rank, Pinned: true}
}

// Config returns the world's (normalized) configuration.
func (w *World) Config() Config { return w.cfg }

// Caps returns the capability descriptor of the world's address space.
func (w *World) Caps() Caps { return w.caps }

// rankWrite runs fn as rank's one writer the way its caller may reach
// it: code of that rank passes inRank, a driver w.claim, another rank's
// handler l.post, a recovery step w.post.
type rankWrite func(rank int, fn func())

// inRank is the rankWrite of code already running as rank's writer.
func inRank(_ int, fn func()) { fn() }

// claim runs fn as rank's one writer for a driver, the one door by which
// code outside the rank reads or writes its state (block store, AGAS
// tables, NIC state, counters, reliability windows, migration pins,
// replica records, heat): it claims the rank (at once on DES), or runs
// fn directly on a world not started or stopped, whose mailboxes run no
// claim. A handler never claims: it would wait for itself.
func (w *World) claim(rank int, fn func()) {
	if !w.started || !w.locs[rank].exec.claim(fn) {
		fn()
	}
}

// post runs fn as rank's one writer for code holding another rank's
// token, which must never wait for a second: queued on rank's mailbox
// (at once on DES, where a recovery step runs at a merge barrier under
// sharding) and counted in mem.pending, so AwaitMember covers it. The
// caller's own half stays synchronous.
func (w *World) post(rank int, fn func()) {
	mem := w.mem
	mem.pending.Add(1)
	if !w.locs[rank].exec.hand(func() { defer mem.donePending(); fn() }) {
		mem.donePending() // a stopped mailbox runs nothing
	}
}

// post is World.post from a handler of l. Under a sharded DES engine the
// handler runs inside a window beside rank's shard, so the post waits for
// the next merge barrier (l.exec.global, which stamps it with l's own
// shard-invariant tie); elsewhere global runs it at once.
func (l *Locality) post(rank int, fn func()) {
	mem := l.w.mem
	mem.pending.Add(1)
	l.exec.global(func() { defer mem.donePending(); l.w.post(rank, fn) })
}

// Ranks returns the number of localities.
func (w *World) Ranks() int { return w.cfg.Ranks }

// Register adds a user action; see Registry.Register.
func (w *World) Register(name string, a Action) parcel.ActionID {
	return w.reg.Register(name, a)
}

// Start seals the action registry and starts the engine (under
// EngineGo, the locality actors).
func (w *World) Start() {
	if w.started {
		panic("runtime: double Start")
	}
	w.started = true
	w.reg.seal()
	w.net.start()
	w.scheduleFaultMembership()
	if w.pulse != nil {
		w.pulse.arm()
	}
}

// Stop shuts the world down, once: under EngineGo it retires the world
// timers, drains in-flight migrations and stops the actors
// (chanNet.stop); under EngineDES it stops a sharded engine's workers.
func (w *World) Stop() {
	if !w.stopped.Swap(true) {
		w.net.stop()
	}
}

// Drain runs the DES engine until no events remain. It panics under
// EngineGo, where there is no global event queue to drain.
func (w *World) Drain() {
	f := w.mustDES("Drain")
	w.pulseResume()
	f.Eng.Run()
}

// Now returns the simulated time under EngineDES (the driver façade's
// under sharding) and 0 under EngineGo.
func (w *World) Now() netsim.VTime { return w.net.now() }

// Engine exposes the DES engine for harness-level scheduling (workload
// drivers inject load at simulated times). It panics under EngineGo.
func (w *World) Engine() *netsim.Engine { return w.mustDES("Engine").Eng }

// Fabric exposes the simulated fabric for stats collection. It is nil
// under EngineGo.
func (w *World) Fabric() *netsim.Fabric { return w.net.fabric() }

// Locality returns rank r's locality.
func (w *World) Locality(r int) *Locality { return w.locs[r] }

// LocalityGVA returns the address of rank r's infrastructure block — the
// target for parcels addressed "to the locality".
func (w *World) LocalityGVA(r int) gas.GVA {
	return gas.New(r, w.locBase+gas.BlockID(r), 0)
}

// mustDES is the capability check of the two calls only the DES engine
// serves: it returns the simulated fabric, or panics on an engine
// without one.
func (w *World) mustDES(op string) *netsim.Fabric {
	f := w.net.fabric()
	if f == nil {
		panic(fmt.Sprintf("runtime: %s requires the DES engine", op))
	}
	return f
}

// fail reports a broken protocol invariant. The runtime treats these as
// programming errors and fails loudly so tests and experiments cannot
// silently produce wrong results.
func (w *World) fail(format string, args ...any) {
	panic("runtime: invariant violated: " + fmt.Sprintf(format, args...))
}

// ErrDeadlock is returned by Wait when the event queue drains (DES) or a
// timeout expires (goroutine engine) before the LCO fires.
var ErrDeadlock = errors.New("runtime: wait would never complete")

// Wait blocks the driver until ref fires and returns its value. Under
// EngineDES it advances simulated time; under EngineGo it blocks the
// calling goroutine, for at most 30 s.
func (w *World) Wait(ref *LCORef) ([]byte, error) { return w.net.wait(ref.obj, ref.G) }

// MustWait is Wait for drivers that treat failure as fatal.
func (w *World) MustWait(ref *LCORef) []byte {
	v, err := w.Wait(ref)
	if err != nil {
		panic(err)
	}
	return v
}

// LCORef names an LCO in the global address space together with the
// driver-side handle to its object.
type LCORef struct {
	G   gas.GVA
	obj lco.LCO
}

// Ready reports whether the LCO has fired.
func (r *LCORef) Ready() bool { return r.obj.Ready() }

// Value returns the fired value (meaningful once Ready).
func (r *LCORef) Value() []byte { return r.obj.Value() }

// OnFire registers a continuation on the underlying object.
func (r *LCORef) OnFire(t lco.Trigger) { r.obj.OnFire(t) }

// newLCO installs obj as an addressable LCO block at rank through
// write: a driver's claim (the World constructors) or the rank's own
// turn (Ctx.NewAndGate). Either way the insert has landed before the
// address exists anywhere but here, so no message can reach the LCO
// first (DESIGN §7).
func (w *World) newLCO(rank int, obj lco.LCO, write rankWrite) *LCORef {
	id, err := w.seq.Reserve(1)
	if err != nil {
		w.fail("LCO allocation: %v", err)
	}
	b := &gas.Block{ID: id, Kind: gas.KindLCO, Home: rank, Pinned: true, Ctl: obj}
	write(rank, func() { err = w.locs[rank].store.Insert(b) })
	if err != nil {
		w.fail("LCO install: %v", err)
	}
	return &LCORef{G: gas.New(rank, id, 0), obj: obj}
}

// NewFuture creates a single-assignment LCO at rank. The World
// constructors are for drivers: each claims the rank (World.claim), so
// an action makes its LCOs with Ctx.NewAndGate instead.
func (w *World) NewFuture(rank int) *LCORef { return w.newLCO(rank, lco.NewFuture(), w.claim) }

// NewAndGate creates an n-input gate LCO at rank.
func (w *World) NewAndGate(rank, n int) *LCORef { return w.newLCO(rank, lco.NewAndGate(n), w.claim) }

// NewReduce creates an n-input reduction LCO at rank.
func (w *World) NewReduce(rank, n int, c lco.Combiner) *LCORef {
	return w.newLCO(rank, lco.NewReduce(n, c), w.claim)
}

// FreeLCO removes an LCO block. It never waits: the removal is handed to
// the rank's mailbox (at once on DES), behind whatever the rank still has
// queued, so a driver and an action on the LCO's rank may both call it.
func (w *World) FreeLCO(ref *LCORef) {
	l := w.locs[ref.G.Home()]
	l.exec.hand(func() { l.store.Remove(ref.G.Block()) })
}
