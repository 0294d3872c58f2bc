package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nmvgas/internal/netsim"
)

// PulseConfig enables the runtime pulse: a periodic control tick inside
// the runtime that is the single cadence source for periodic work
// (watchdog evaluation, load-balancing epochs, any OnPulse client).
//
// The pulse is a world timer (the engine port's after) at times
// k·Period: under EngineDES an engine event on the simulated clock, so
// pulse-driven behaviour is exactly as deterministic as the rest of the
// simulation; under EngineGo a wall timer one Period (scaled through
// goTimeScale) after the last tick, which stops with the world.
//
// The disabled path is a nil pointer on World: no timer is armed and
// every hook is a single nil check — a world with Pulse off is
// byte-identical, counter for counter, to one built before the pulse
// existed.
type PulseConfig struct {
	// Enabled turns the pulse on. The zero value keeps every pulse and
	// watchdog path out of the runtime entirely.
	Enabled bool
	// Period is the tick interval on the simulated clock (EngineDES) or,
	// scaled by goTimeScale, the wall clock (EngineGo). 0 = 100µs.
	Period netsim.VTime
	// Watchdogs tunes the invariant monitors evaluated on each tick (see
	// WatchdogConfig). They always run when the pulse is on.
	Watchdogs WatchdogConfig
}

// withDefaults normalizes: a disabled config collapses to the zero value
// so config comparisons stay meaningful, an enabled one fills defaults.
func (c PulseConfig) withDefaults() PulseConfig {
	if !c.Enabled {
		return PulseConfig{}
	}
	if c.Period <= 0 {
		c.Period = 100 * netsim.Microsecond
	}
	c.Watchdogs = c.Watchdogs.withDefaults()
	return c
}

// PulseInfo is handed to every pulse client on each tick.
type PulseInfo struct {
	// Seq is the 1-based tick count.
	Seq uint64
	// Now is the tick time: simulated under EngineDES, wall-clock
	// nanoseconds since world creation under EngineGo.
	Now netsim.VTime
}

type pulseClient struct {
	name string
	fn   func(PulseInfo)
}

// pulseState drives the metronome. On the DES engine, to keep Drain/Run
// terminating, the tick parks itself when it is the only thing left in
// the queue; the driver entry points re-arm it (Wait, Drain, the port's
// await, the blocking one-sided ops' desExec.awaitOp). At most one
// trailing tick runs after the last real event, so an idle world costs
// nothing. On the goroutine engine each tick arms the next until Stop.
type pulseState struct {
	w      *World
	period netsim.VTime
	seq    atomic.Uint64

	// armed means a tick is scheduled. Each tick arms its successor, so
	// touches never overlap; pulseResume reads it only under EngineDES.
	armed bool

	mu      sync.Mutex
	clients []pulseClient

	wd *watchdogState
}

func newPulseState(w *World, cfg PulseConfig) *pulseState {
	return &pulseState{w: w, period: cfg.Period, wd: newWatchdogState(cfg.Watchdogs)}
}

// arm schedules the next tick at the next multiple of the period.
// Aligning fire times to k·Period (rather than now+Period) makes the DES
// tick schedule a pure function of simulated time: when and how often
// the driver calls Wait/Drain cannot shift it. Under EngineGo Now is 0,
// so ticks are one period apart. World.Start arms the first tick.
func (ps *pulseState) arm() {
	now := ps.w.Now()
	ps.armed = true
	ps.w.net.after((now/ps.period+1)*ps.period-now, ps.tick)
}

// tick is the metronome. It runs in world context (under sharding a
// barrier task), so clients may legally read and schedule across every
// rank, exactly like driver code between windows.
func (ps *pulseState) tick() {
	ps.fire()
	if ps.w.net.quiet() {
		// Nothing left but us: park so Run/RunUntil terminate. The next
		// driver entry point re-arms.
		ps.armed = false
		return
	}
	ps.arm()
}

// pulseResume re-arms a parked DES metronome. Every driver entry point
// that advances the engine calls it; a nil pulse (Config.Pulse off)
// costs exactly this nil check.
func (w *World) pulseResume() {
	if w.pulse == nil || w.pulse.armed {
		return
	}
	w.pulse.arm()
}

// fire runs one tick: watchdogs first (so clients can read fresh health
// state), then the registered clients in registration order.
func (ps *pulseState) fire() {
	seq := ps.seq.Add(1)
	info := PulseInfo{Seq: seq, Now: netsim.VTime(ps.w.net.latNow())}
	ps.wd.evaluate(ps.w, info)
	ps.mu.Lock()
	var clients []pulseClient
	if len(ps.clients) > 0 {
		clients = append(clients, ps.clients...)
	}
	ps.mu.Unlock()
	for _, c := range clients {
		c.fn(info)
	}
}

// PulseCount returns the number of pulse ticks fired so far (0 when the
// pulse is off).
func (w *World) PulseCount() uint64 {
	if w.pulse == nil {
		return 0
	}
	return w.pulse.seq.Load()
}

// OnPulse registers fn as a pulse client invoked on every tick, after
// watchdog evaluation, in registration order. name labels the client in
// panics and docs. Clients run in tick context: under EngineDES that is
// driver/barrier context (safe to read any rank's state and to issue
// non-blocking runtime calls such as SendParcel, Migrate, ReplicateLive);
// they must not call World.Wait, which re-enters the engine. Under
// EngineGo clients run on a timer goroutine, concurrent with actors, and
// must not call World.Stop, which waits for the running tick.
//
// It panics when the pulse is off: a silent no-op would make a
// mis-configured control loop look healthy.
func (w *World) OnPulse(name string, fn func(PulseInfo)) {
	if w.pulse == nil {
		panic(fmt.Sprintf("runtime: OnPulse(%q) needs Config.Pulse.Enabled", name))
	}
	ps := w.pulse
	ps.mu.Lock()
	ps.clients = append(ps.clients, pulseClient{name: name, fn: fn})
	ps.mu.Unlock()
}
