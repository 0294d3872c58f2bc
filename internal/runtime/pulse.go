package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nmvgas/internal/netsim"
)

// PulseConfig enables the runtime pulse: a periodic control tick inside
// the runtime that is the single cadence source for periodic work
// (watchdog evaluation, load-balancing epochs, any OnPulse client).
//
// Under EngineDES the pulse is an engine-scheduled metronome event at
// simulated times k·Period, so pulse-driven behaviour is exactly as
// deterministic as the rest of the simulation. Under EngineGo it is a
// ticker goroutine at Period scaled through goTimeScale.
//
// The disabled path is a nil pointer on World: no events are scheduled,
// no goroutine starts, and every hook is a single nil check — a world
// with Pulse off is byte-identical, counter for counter, to one built
// before the pulse existed.
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

// pulseState drives the metronome. On the DES engine the tick is a
// driver-scheduled event; to keep Drain/Run terminating, the tick parks
// itself when it is the only thing left in the queue and is re-armed by
// the driver entry points (Wait, Drain, World.await and the blocking
// one-sided ops, see desAwait). At most one trailing tick runs
// after the last real event, so an idle world costs nothing. On the
// goroutine engine a ticker goroutine fires until Stop.
type pulseState struct {
	w      *World
	period netsim.VTime
	seq    atomic.Uint64

	// armed is DES-only state: a metronome event is in the queue. All
	// touches happen on the single driver/engine goroutine.
	armed bool

	// stop ends the EngineGo ticker goroutine.
	stop chan struct{}

	mu      sync.Mutex
	clients []pulseClient

	wd *watchdogState
}

func newPulseState(w *World, cfg PulseConfig) *pulseState {
	return &pulseState{w: w, period: cfg.Period, wd: newWatchdogState(cfg.Watchdogs)}
}

// start arms the metronome; called from World.Start.
func (ps *pulseState) start() {
	if ps.w.eng != nil {
		ps.desArm()
		return
	}
	ps.stop = make(chan struct{})
	go ps.goLoop(ps.w.goWall(ps.period), ps.stop)
}

// stopGo ends the EngineGo ticker; called from World.Stop. DES needs no
// teardown — an unfired tick event is inert once the driver stops
// running the engine.
func (ps *pulseState) stopGo() {
	if ps.stop != nil {
		close(ps.stop)
		ps.stop = nil
	}
}

func (ps *pulseState) goLoop(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			// Both channels can be ready at once and select picks at
			// random; re-check stop so at most one fire trails Stop.
			select {
			case <-stop:
				return
			default:
			}
			ps.fire()
		}
	}
}

// desArm schedules the next tick at the next multiple of the period.
// Aligning fire times to k·Period (rather than now+Period) makes the
// tick schedule a pure function of simulated time: when and how often
// the driver calls Wait/Drain cannot shift it.
func (ps *pulseState) desArm() {
	now := ps.w.eng.Now()
	next := (now/ps.period + 1) * ps.period
	ps.armed = true
	ps.w.eng.At(next, ps.desTick)
}

// desTick is the metronome event. Under sharding it is a barrier task
// (World.eng is the driver façade), so clients may legally read and
// schedule across every rank, exactly like driver code between windows.
func (ps *pulseState) desTick() {
	ps.fire()
	if ps.w.eng.Pending() == 0 {
		// Nothing left but us: park so Run/RunUntil terminate. The next
		// driver entry point re-arms.
		ps.armed = false
		return
	}
	ps.desArm()
}

// pulseResume re-arms a parked DES metronome. Every driver entry point
// that advances the engine calls it; a nil pulse (Config.Pulse off)
// costs exactly this nil check.
func (w *World) pulseResume() {
	if w.pulse == nil || w.eng == nil || w.pulse.armed {
		return
	}
	w.pulse.desArm()
}

// fire runs one tick: watchdogs first (so clients can read fresh health
// state), then the registered clients in registration order.
func (ps *pulseState) fire() {
	seq := ps.seq.Add(1)
	info := PulseInfo{Seq: seq, Now: netsim.VTime(ps.w.latNow())}
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

// PulseEnabled reports whether the runtime pulse is configured on.
func (w *World) PulseEnabled() bool { return w.pulse != nil }

// PulseCount returns the number of pulse ticks fired so far (0 when the
// pulse is off).
func (w *World) PulseCount() uint64 {
	if w.pulse == nil {
		return 0
	}
	return w.pulse.seq.Load()
}

// PulsePeriod returns the configured tick interval (0 when off).
func (w *World) PulsePeriod() netsim.VTime {
	if w.pulse == nil {
		return 0
	}
	return w.pulse.period
}

// OnPulse registers fn as a pulse client invoked on every tick, after
// watchdog evaluation, in registration order. name labels the client in
// panics and docs. Clients run in tick context: under EngineDES that is
// driver/barrier context (safe to read any rank's state and to issue
// non-blocking runtime calls such as SendParcel, Migrate, ReplicateLive);
// they must not call World.Wait, which re-enters the engine. Under
// EngineGo clients run on the ticker goroutine, concurrent with actors.
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
