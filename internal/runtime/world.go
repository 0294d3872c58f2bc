package runtime

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/lco"
	"nmvgas/internal/netsim"
	"nmvgas/internal/nmagas"
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
	net  network

	// mirror pushes directory changes into NIC translation state (nil
	// unless the address space translates in the NIC).
	mirror *nmagas.Mirror

	// DES engine state (nil under EngineGo).
	eng *netsim.Engine
	fab *netsim.Fabric

	// faults is the goroutine transport's injector (the DES fabric owns
	// its own); nil without faults and under EngineDES.
	faults *netsim.FaultInjector

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

	// epoch anchors every clock of EngineGo, which has no simulated one
	// (see clockOn).
	epoch time.Time

	// lat holds the latency histograms; nil unless cfg.Metrics (the
	// disabled hot path pays one nil check, nothing else).
	lat *latencyState

	// heat holds the sampled access-heat tracker feeding the load
	// balancer; nil unless cfg.Heat.Enabled (the disabled hot path pays
	// one nil check, nothing else — see heat.go).
	heat *heatState

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
	stopped bool
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
	if cfg.Heat.Enabled {
		w.heat = newHeatState(cfg.Heat, cfg.Ranks)
	}
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
		if cfg.Shards > 0 {
			// Conservative lookahead: no cross-rank event can land sooner
			// than the cheapest wire path, one minimum-hop traversal at the
			// model's link latency. See netsim.ParEngine.
			la := cfg.Model.Latency * netsim.VTime(netsim.MinHops(cfg.Topology))
			shards := cfg.Shards
			if cfg.reliable() {
				// The reliable layer's exactly-once store is keyed per
				// (source, channel) stream, and one stream is legitimately
				// touched by different receiving ranks inside one window
				// (host forwards, post-migration re-resolution, cumulative
				// acks) — state the rank partition cannot isolate. Such a
				// world runs the windowed engine on one shard, bit-identical
				// to every shard count by construction; fault-free runs,
				// where the layer is off and nothing crosses the partition,
				// keep their parallel windows.
				shards = 1
			}
			w.eng = netsim.NewParEngine(cfg.Ranks, shards, la)
		} else {
			w.eng = netsim.NewEngine()
		}
		w.fab = netsim.NewFabric(w.eng, netsim.FabricConfig{
			Ranks:       cfg.Ranks,
			Model:       cfg.Model,
			GVARouting:  bld.caps.NICTranslation,
			Policy:      cfg.Policy,
			NICTableCap: cfg.NICTableCap,
			Topology:    cfg.Topology,
			Faults:      cfg.Faults,
		})
		w.net = w.fab
		for r, l := range w.locs {
			l.eng = w.eng.RankEngine(r)
			l.exec = &desExec{eng: l.eng, rank: r, l: l}
			nic := w.fab.NIC(r)
			loc := l
			nic.Resident = loc.residentForNIC
			nic.ResidentRead = loc.residentForRead
			nic.HostDeliver = func(m *netsim.Message) {
				loc.exec.ExecMsg(cfg.Model.ORecv+cfg.Model.HandlerDispatch, opHostMsg, m)
			}
			nic.DMADeliver = loc.onDMA
			nic.OnForward = func(m *netsim.Message, owner int) {
				loc.traceOp(TraceNICForward, m.Block, uint64(int64(owner)), m.OpID)
			}
		}
	case EngineGo:
		w.faults = netsim.NewFaultInjector(cfg.Faults)
		for _, l := range w.locs {
			l.exec = newGoExec()
		}
		w.net = newChanNet(w)
	default:
		return nil, fmt.Errorf("runtime: unknown engine %d", cfg.Engine)
	}
	// World-level strategy wiring (e.g. the NM directory→NIC mirror) runs
	// once the engine substrate exists.
	bld.initWorld(w)

	// Per-locality infrastructure blocks: parcels that address "the
	// locality" (collectives wiring, migration control) target these.
	base, err := w.seq.Reserve(uint32(cfg.Ranks))
	if err != nil {
		return nil, err
	}
	w.locBase = base
	for r, l := range w.locs {
		b := &gas.Block{ID: base + gas.BlockID(r), Kind: gas.KindData, BSize: 64, Data: make([]byte, 64), Home: r, Pinned: true}
		if err := l.store.Insert(b); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Config returns the world's (normalized) configuration.
func (w *World) Config() Config { return w.cfg }

// Caps returns the capability descriptor of the world's address space.
func (w *World) Caps() Caps { return w.caps }

// dropTranslation forgets every locality's and the network's translation
// state for a freed block.
func (w *World) dropTranslation(b gas.BlockID, home int) {
	for _, loc := range w.locs {
		loc.space.OnFree(b, home)
	}
	if w.mirror != nil {
		w.mirror.Drop(b)
	}
}

// Ranks returns the number of localities.
func (w *World) Ranks() int { return w.cfg.Ranks }

// Register adds a user action; see Registry.Register.
func (w *World) Register(name string, a Action) parcel.ActionID {
	return w.reg.Register(name, a)
}

// Start seals the action registry and, under EngineGo, launches the
// locality actors.
func (w *World) Start() {
	if w.started {
		panic("runtime: double Start")
	}
	w.started = true
	w.reg.seal()
	if w.fab != nil {
		w.fab.Live = w.mem
	}
	if w.cfg.Engine == EngineGo {
		for _, l := range w.locs {
			l.exec.(*goExec).start()
		}
	}
	w.scheduleFaultMembership()
	if w.pulse != nil {
		w.pulse.start()
	}
}

// stopDrainTimeout bounds how long Stop waits for in-flight migrations
// to finish on the goroutine engine before abandoning them.
const stopDrainTimeout = 2 * time.Second

// Stop shuts the world down. Under EngineGo it first waits (briefly,
// bounded by stopDrainTimeout) for in-flight migrations to complete —
// tearing the actors down around a half-moved block would strand its
// queued traffic — then drains and stops the actors, and
// deterministically aborts anything still mid-move so the final state
// is consistent for post-mortem inspection. Under EngineDES it is a
// no-op beyond marking the world stopped.
func (w *World) Stop() {
	if w.stopped {
		return
	}
	w.stopped = true
	if w.pulse != nil {
		w.pulse.stopGo()
	}
	if w.eng != nil {
		if par := w.eng.Par(); par != nil {
			par.Shutdown()
		}
	}
	if w.cfg.Engine == EngineGo {
		w.awaitMigrationDrain(stopDrainTimeout)
		for _, l := range w.locs {
			l.exec.(*goExec).stop()
		}
		w.abortStrandedMigrations()
	}
}

// awaitMigrationDrain polls until no locality has a block mid-move, or
// the deadline passes. Only migrations that have already pinned count;
// a migrate.req still queued behind the stop simply never pins.
func (w *World) awaitMigrationDrain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		moving := 0
		for _, l := range w.locs {
			l.mu.Lock()
			moving += len(l.moving)
			l.mu.Unlock()
		}
		if moving == 0 || time.Now().After(deadline) {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// abortStrandedMigrations runs after the actors have stopped: any block
// still pinned mid-move is unpinned in place (the move is abandoned;
// the block stays at its old owner) and its queued arrivals are
// discarded, so the stopped world's image is consistent.
func (w *World) abortStrandedMigrations() {
	for _, l := range w.locs {
		l.mu.Lock()
		var stranded []gas.BlockID
		var dsts []int
		for b, st := range l.moving {
			stranded, dsts = append(stranded, b), append(dsts, st.dst)
		}
		for _, b := range stranded {
			delete(l.moving, b)
		}
		l.movingN.Store(0)
		l.mu.Unlock()
		for i, b := range stranded {
			l.space.AbortMigrate(b)
			l.trace(TraceMigrateAbort, b, 0)
			// The data may have landed at a destination whose commit died
			// with the actors; the abandoned move leaves no second master.
			if dl := w.locs[dsts[i]]; dl != l && dl.residentForNIC(b) {
				dl.store.Remove(b)
			}
		}
	}
}

// Drain runs the DES engine until no events remain. It panics under
// EngineGo, where there is no global event queue to drain.
func (w *World) Drain() {
	w.mustDES("Drain")
	w.pulseResume()
	w.eng.Run()
}

// Now returns the simulated time under EngineDES and 0 under EngineGo.
func (w *World) Now() netsim.VTime {
	if w.eng != nil {
		return w.eng.Now()
	}
	return 0
}

// goWall converts a simulated duration to a wall-clock duration under
// EngineGo, through goTimeScale.
func (w *World) goWall(d netsim.VTime) time.Duration {
	return time.Duration(int64(d) * goTimeScale)
}

// Engine exposes the DES engine for harness-level scheduling (workload
// drivers inject load at simulated times). It panics under EngineGo.
func (w *World) Engine() *netsim.Engine {
	w.mustDES("Engine")
	return w.eng
}

// Fabric exposes the simulated fabric for stats collection. It is nil
// under EngineGo.
func (w *World) Fabric() *netsim.Fabric { return w.fab }

// Locality returns rank r's locality.
func (w *World) Locality(r int) *Locality { return w.locs[r] }

// LocalityGVA returns the address of rank r's infrastructure block — the
// target for parcels addressed "to the locality".
func (w *World) LocalityGVA(r int) gas.GVA {
	return gas.New(r, w.locBase+gas.BlockID(r), 0)
}

func (w *World) mustDES(op string) {
	if w.eng == nil {
		panic(fmt.Sprintf("runtime: %s requires the DES engine", op))
	}
}

// onActor schedules fn as rank-l host work from global (driver or
// barrier) context. On the classic DES engine it is an ordinary executor
// task; under sharding it runs as a barrier task instead, because the
// recovery and membership work routed through here freely reaches across
// ranks — inside a parallel window that would race. Under EngineGo it is
// a plain actor task.
func (w *World) onActor(l *Locality, fn func()) {
	if w.eng != nil && w.eng.Sharded() {
		w.eng.After(0, fn)
		return
	}
	l.exec.Exec(0, fn)
}

// deferGlobal runs fn in a context allowed to touch any rank's state:
// immediately when called from a serial engine (classic DES, EngineGo's
// own locking applies), at the next merge barrier under sharding. l is
// the calling locality.
func (w *World) deferGlobal(l *Locality, fn func()) {
	if l.eng != nil {
		l.eng.AtBarrier(fn)
		return
	}
	fn()
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

// waitTimeout bounds Wait on the goroutine engine.
const waitTimeout = 30 * time.Second

// Wait blocks the driver until ref fires and returns its value. Under
// EngineDES it advances simulated time; under EngineGo it blocks the
// calling goroutine.
func (w *World) Wait(ref *LCORef) ([]byte, error) {
	if w.eng != nil {
		w.pulseResume()
		if ok := w.eng.RunUntil(ref.obj.Ready); !ok {
			return nil, fmt.Errorf("%w: event queue drained with LCO %v unset", ErrDeadlock, ref.G)
		}
		return ref.obj.Value(), nil
	}
	done := make(chan struct{})
	ref.obj.OnFire(func([]byte) { close(done) })
	select {
	case <-done:
		return ref.obj.Value(), nil
	case <-time.After(waitTimeout):
		return nil, fmt.Errorf("%w: timeout after %v waiting on %v", ErrDeadlock, waitTimeout, ref.G)
	}
}

// await advances the world until cond holds and reports whether it does.
// Under EngineDES it drives the engine (keeping the pulse armed) until
// cond holds or the queue drains; under EngineGo it polls until timeout.
// The DES drain checks cond every 64 events: conditions that take a lock
// and flip thousands of events apart make a per-event probe pure
// overhead, and nothing here measures the stopping time.
func (w *World) await(cond func() bool, timeout time.Duration) bool {
	if w.eng != nil {
		if cond() {
			return true
		}
		w.pulseResume()
		w.eng.RunUntilStride(cond, 64)
		return cond()
	}
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); {
		if cond() {
			return true
		}
		time.Sleep(200 * time.Microsecond)
	}
	return cond()
}

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

// newLCO installs obj as an addressable LCO block at rank.
func (w *World) newLCO(rank int, obj lco.LCO) *LCORef {
	id, err := w.seq.Reserve(1)
	if err != nil {
		w.fail("LCO allocation: %v", err)
	}
	b := &gas.Block{ID: id, Kind: gas.KindLCO, Home: rank, Pinned: true, Ctl: obj}
	if err := w.locs[rank].store.Insert(b); err != nil {
		w.fail("LCO install: %v", err)
	}
	return &LCORef{G: gas.New(rank, id, 0), obj: obj}
}

// NewFuture creates a single-assignment LCO at rank.
func (w *World) NewFuture(rank int) *LCORef { return w.newLCO(rank, lco.NewFuture()) }

// NewAndGate creates an n-input gate LCO at rank.
func (w *World) NewAndGate(rank, n int) *LCORef { return w.newLCO(rank, lco.NewAndGate(n)) }

// NewReduce creates an n-input reduction LCO at rank.
func (w *World) NewReduce(rank, n int, c lco.Combiner) *LCORef {
	return w.newLCO(rank, lco.NewReduce(n, c))
}

// FreeLCO removes an LCO block.
func (w *World) FreeLCO(ref *LCORef) {
	w.locs[ref.G.Home()].store.Remove(ref.G.Block())
}
