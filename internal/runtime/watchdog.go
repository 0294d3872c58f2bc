package runtime

import (
	"fmt"
	"sync"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// WatchLevel is a watchdog's thresholded state.
type WatchLevel uint8

const (
	// WatchOK means the monitored invariant holds comfortably.
	WatchOK WatchLevel = iota
	// WatchWarn means the warn threshold is crossed.
	WatchWarn
	// WatchCritical means the critical threshold is crossed.
	WatchCritical
)

func (l WatchLevel) String() string {
	switch l {
	case WatchOK:
		return "ok"
	case WatchWarn:
		return "warn"
	case WatchCritical:
		return "critical"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// MarshalText makes WatchLevel render as its name in JSON bundles and
// /healthz responses.
func (l WatchLevel) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

// UnmarshalText accepts the names MarshalText emits, so health reports
// and flight bundles round-trip through JSON.
func (l *WatchLevel) UnmarshalText(b []byte) error {
	switch string(b) {
	case "ok":
		*l = WatchOK
	case "warn":
		*l = WatchWarn
	case "critical":
		*l = WatchCritical
	default:
		return fmt.Errorf("runtime: unknown watch level %q", b)
	}
	return nil
}

// WatchdogConfig tunes the invariant monitors evaluated on each pulse:
// the thresholds that experiments injecting anomalies lower to measure
// trip latency. Every default is chosen so a healthy world under the
// in-repo workloads never trips; the thresholds no caller varies are the
// wd* constants below.
type WatchdogConfig struct {
	// RetransWarn / RetransCritical are retransmission-storm rates:
	// timer-driven resends per pulse across the world. Defaults 64 / 512.
	RetransWarn, RetransCritical uint64

	// HeatWarn / HeatCritical are load-imbalance ratios (max over mean
	// per-rank heat), evaluated only once wdHeatMinSamples accesses were
	// sampled and only when Config.Heat is on. Defaults 4 / 8.
	HeatWarn, HeatCritical float64

	// StallWarnPulses / StallCriticalPulses bound how long a block may
	// stay pinned mid-migration: a pin older than N pulses means the
	// move's data or commit leg is stuck while arrivals queue behind it.
	// Defaults 3 / 8.
	StallWarnPulses, StallCriticalPulses int
}

// The fixed thresholds.
const (
	// wdQueueWarn / wdQueueCritical are per-rank backlog watermarks:
	// pending events attributed to a rank (DES) or mailbox depth
	// (EngineGo).
	wdQueueWarn, wdQueueCritical = 1024, 8192
	// wdUnackedWarn / wdUnackedCritical are black-hole watermarks on
	// World.UnackedMessages, and wdUnackedPulses is how many consecutive
	// pulses the count must stay above a watermark before the level is
	// reported — transient in-flight bursts are normal; a *sustained*
	// backlog means acks stopped flowing.
	wdUnackedWarn, wdUnackedCritical, wdUnackedPulses = 256, 2048, 3
	// wdSuspectPulses is the suspicion dwell: a rank continuously Suspect
	// for this many pulses reports warn (suspicion should resolve to
	// alive or dead quickly). A Dead rank reports critical until it
	// rejoins.
	wdSuspectPulses = 4
	// wdHeatMinSamples is the sampled-access floor below which the
	// heat-imbalance monitor reports ok.
	wdHeatMinSamples = 64
)

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.RetransWarn == 0 {
		c.RetransWarn = 64
	}
	if c.RetransCritical == 0 {
		c.RetransCritical = 512
	}
	if c.HeatWarn <= 0 {
		c.HeatWarn = 4
	}
	if c.HeatCritical <= 0 {
		c.HeatCritical = 8
	}
	if c.StallWarnPulses <= 0 {
		c.StallWarnPulses = 3
	}
	if c.StallCriticalPulses <= 0 {
		c.StallCriticalPulses = 8
	}
	return c
}

// Watchdog names, in evaluation (and report) order.
const (
	WatchQueueDepth     = "queue-depth"
	WatchRetransStorm   = "retransmit-storm"
	WatchUnackedBacklog = "unacked-backlog"
	WatchMemberDwell    = "member-dwell"
	WatchHeatImbalance  = "heat-imbalance"
	WatchMigrationStall = "migration-stall"
)

// WatchdogNames returns the fixed catalog of built-in monitors in
// report order (metrics publishers key series off it).
func WatchdogNames() []string {
	return []string{
		WatchQueueDepth, WatchRetransStorm, WatchUnackedBacklog,
		WatchMemberDwell, WatchHeatImbalance, WatchMigrationStall,
	}
}

// WatchdogStatus is one monitor's state as of the last pulse.
type WatchdogStatus struct {
	Name  string     `json:"name"`
	Level WatchLevel `json:"level"`
	// Value is the measured quantity the thresholds apply to (depth,
	// rate, ratio, or age in pulses, per the catalog in DESIGN.md §15).
	Value float64 `json:"value"`
	// Warn and Critical echo the configured thresholds.
	Warn     float64 `json:"warn"`
	Critical float64 `json:"critical"`
	// Rank is the offending rank where one exists, else -1.
	Rank int `json:"rank"`
	// Detail is a human-readable one-liner ("" when ok).
	Detail string `json:"detail,omitempty"`
	// SincePulse is the pulse at which the current level was entered.
	SincePulse uint64 `json:"since_pulse"`
}

// HealthReport is the world's aggregated watchdog state.
type HealthReport struct {
	// Enabled is false when the pulse or the watchdogs are off; the rest
	// of the report is then zero.
	Enabled bool `json:"enabled"`
	// Pulse is the tick the report reflects.
	Pulse uint64 `json:"pulse"`
	// Time is that tick's PulseInfo.Now.
	Time netsim.VTime `json:"time_ns"`
	// Level is the worst watchdog level.
	Level WatchLevel `json:"level"`
	// Watchdogs lists every monitor in catalog order.
	Watchdogs []WatchdogStatus `json:"watchdogs,omitempty"`
}

// WatchdogEvent is delivered to OnWatchdogTrip callbacks when a monitor
// escalates (its level strictly increases).
type WatchdogEvent struct {
	Status WatchdogStatus
	Pulse  uint64
	Now    netsim.VTime
}

type stallKey struct {
	rank  int
	block gas.BlockID
}

// watchdogState holds the monitors' cross-pulse memory. The mutex makes
// Health and HTTP reads safe against EngineGo ticker evaluation; under
// DES everything runs on the driver goroutine and the lock is
// uncontended.
type watchdogState struct {
	cfg WatchdogConfig

	mu     sync.Mutex
	status []WatchdogStatus
	pulse  uint64
	now    netsim.VTime
	worst  WatchLevel
	trips  []func(WatchdogEvent)

	lastRetrans  uint64 // cumulative count at the previous pulse
	unackedRun   int    // consecutive pulses above wdUnackedWarn
	unackedCrit  int    // consecutive pulses above wdUnackedCritical
	suspectSince map[int]uint64
	stallSince   map[stallKey]uint64
	depths       []int // scratch, sized to ranks on first use
}

func newWatchdogState(cfg WatchdogConfig) *watchdogState {
	names := WatchdogNames()
	st := make([]WatchdogStatus, len(names))
	for i, n := range names {
		st[i] = WatchdogStatus{Name: n, Rank: -1}
	}
	return &watchdogState{
		cfg:          cfg,
		status:       st,
		suspectSince: make(map[int]uint64),
		stallSince:   make(map[stallKey]uint64),
	}
}

// evaluate runs every monitor against the world's current counters. It
// reads only — no monitor mutates protocol state — so a world with
// watchdogs on behaves identically to one without, minus the pulse
// events themselves.
func (wd *watchdogState) evaluate(w *World, info PulseInfo) {
	wd.mu.Lock()
	wd.pulse = info.Seq
	wd.now = info.Now

	next := [6]WatchdogStatus{
		wd.evalQueueDepth(w),
		wd.evalRetransStorm(w),
		wd.evalUnacked(w),
		wd.evalMemberDwell(w, info.Seq),
		wd.evalHeatImbalance(w),
		wd.evalMigrationStall(w, info.Seq),
	}

	var events []WatchdogEvent
	wd.worst = WatchOK
	for i := range wd.status {
		prev := &wd.status[i]
		n := next[i]
		n.Name = prev.Name
		n.SincePulse = prev.SincePulse
		if n.Level != prev.Level {
			n.SincePulse = info.Seq
			if n.Level > prev.Level && len(wd.trips) > 0 {
				events = append(events, WatchdogEvent{Status: n, Pulse: info.Seq, Now: info.Now})
			}
		}
		*prev = n
		if n.Level > wd.worst {
			wd.worst = n.Level
		}
	}
	trips := wd.trips
	wd.mu.Unlock()

	// Fire trip callbacks outside the lock: they typically snapshot the
	// world (flight-recorder capture), which re-enters Health.
	for _, ev := range events {
		for _, fn := range trips {
			fn(ev)
		}
	}
}

// level applies thresholds to a measured value.
func level(v, warn, crit float64) WatchLevel {
	switch {
	case v >= crit:
		return WatchCritical
	case v >= warn:
		return WatchWarn
	}
	return WatchOK
}

func (wd *watchdogState) evalQueueDepth(w *World) WatchdogStatus {
	if wd.depths == nil {
		wd.depths = make([]int, w.Ranks())
	}
	w.net.queueDepthsInto(wd.depths)
	maxd, rank := 0, -1
	for r, d := range wd.depths {
		if d > maxd {
			maxd, rank = d, r
		}
	}
	s := WatchdogStatus{
		Value: float64(maxd), Warn: wdQueueWarn, Critical: wdQueueCritical, Rank: rank,
		Level: level(float64(maxd), wdQueueWarn, wdQueueCritical),
	}
	if s.Level > WatchOK {
		s.Detail = fmt.Sprintf("rank %d backlog %d events", rank, maxd)
	}
	return s
}

func (wd *watchdogState) evalRetransStorm(w *World) WatchdogStatus {
	cum := w.retransmitCount()
	delta := cum - wd.lastRetrans
	wd.lastRetrans = cum
	s := WatchdogStatus{
		Value: float64(delta), Warn: float64(wd.cfg.RetransWarn),
		Critical: float64(wd.cfg.RetransCritical), Rank: -1,
		Level: level(float64(delta), float64(wd.cfg.RetransWarn), float64(wd.cfg.RetransCritical)),
	}
	if s.Level > WatchOK {
		s.Detail = fmt.Sprintf("%d retransmits this pulse (%d total)", delta, cum)
	}
	return s
}

func (wd *watchdogState) evalUnacked(w *World) WatchdogStatus {
	n := w.UnackedMessages()
	if n >= wdUnackedWarn {
		wd.unackedRun++
	} else {
		wd.unackedRun = 0
	}
	if n >= wdUnackedCritical {
		wd.unackedCrit++
	} else {
		wd.unackedCrit = 0
	}
	lvl := WatchOK
	switch {
	case wd.unackedCrit >= wdUnackedPulses:
		lvl = WatchCritical
	case wd.unackedRun >= wdUnackedPulses:
		lvl = WatchWarn
	}
	s := WatchdogStatus{
		Value: float64(n), Warn: wdUnackedWarn, Critical: wdUnackedCritical, Rank: -1, Level: lvl,
	}
	if lvl > WatchOK {
		s.Detail = fmt.Sprintf("%d unacked messages for %d+ pulses", n, wdUnackedPulses)
	}
	return s
}

func (wd *watchdogState) evalMemberDwell(w *World, pulse uint64) WatchdogStatus {
	s := WatchdogStatus{Warn: wdSuspectPulses, Critical: wdSuspectPulses, Rank: -1}
	deadRank, dwell, dwellRank := -1, uint64(0), -1
	w.mem.mu.Lock() // the verdict table, read in one piece
	defer w.mem.mu.Unlock()
	for r, st := range w.mem.state {
		switch st {
		case MemberSuspect:
			since, ok := wd.suspectSince[r]
			if !ok {
				since = pulse
				wd.suspectSince[r] = pulse
			}
			if age := pulse - since; age >= dwell {
				dwell, dwellRank = age, r
			}
		case MemberDead:
			if deadRank < 0 {
				deadRank = r
			}
			delete(wd.suspectSince, r)
		default:
			delete(wd.suspectSince, r)
		}
	}
	switch {
	case deadRank >= 0:
		s.Level = WatchCritical
		s.Rank = deadRank
		s.Value = float64(deadRank)
		s.Detail = fmt.Sprintf("rank %d dead (epoch %d)", deadRank, w.mem.epoch)
	case dwellRank >= 0:
		s.Value = float64(dwell)
		s.Rank = dwellRank
		if dwell >= wdSuspectPulses {
			s.Level = WatchWarn
			s.Detail = fmt.Sprintf("rank %d suspect for %d pulses", dwellRank, dwell)
		}
	}
	return s
}

func (wd *watchdogState) evalHeatImbalance(w *World) WatchdogStatus {
	s := WatchdogStatus{Warn: wd.cfg.HeatWarn, Critical: wd.cfg.HeatCritical, Rank: -1, Value: 1}
	if !w.HeatEnabled() || w.HeatSampled() < wdHeatMinSamples {
		return s
	}
	loads := w.HeatLoads()
	var total, maxLoad uint64
	rank := -1
	for r, l := range loads {
		total += l
		if l > maxLoad {
			maxLoad, rank = l, r
		}
	}
	if total == 0 {
		return s
	}
	mean := float64(total) / float64(len(loads))
	ratio := float64(maxLoad) / mean
	s.Value = ratio
	s.Rank = rank
	s.Level = level(ratio, wd.cfg.HeatWarn, wd.cfg.HeatCritical)
	if s.Level > WatchOK {
		s.Detail = fmt.Sprintf("rank %d carries %.1f× mean heat", rank, ratio)
	}
	return s
}

func (wd *watchdogState) evalMigrationStall(w *World, pulse uint64) WatchdogStatus {
	s := WatchdogStatus{
		Warn: float64(wd.cfg.StallWarnPulses), Critical: float64(wd.cfg.StallCriticalPulses),
		Rank: -1,
	}
	var seen map[stallKey]uint64
	oldest, oldestKey := uint64(0), stallKey{rank: -1}
	for _, l := range w.locs {
		var pinned []gas.BlockID
		w.claim(l.rank, func() {
			for b := range l.moving {
				pinned = append(pinned, b)
			}
		})
		for _, b := range pinned {
			k := stallKey{rank: l.rank, block: b}
			since, ok := wd.stallSince[k]
			if !ok {
				since = pulse
			}
			if seen == nil {
				seen = make(map[stallKey]uint64)
			}
			seen[k] = since
			age := pulse - since
			// Deterministic tie-break: oldest pin, then lowest rank,
			// then lowest block (map iteration order must not leak).
			if age > oldest || (age == oldest && (oldestKey.rank < 0 ||
				k.rank < oldestKey.rank ||
				(k.rank == oldestKey.rank && k.block < oldestKey.block))) {
				oldest, oldestKey = age, k
			}
		}
	}
	if seen == nil {
		wd.stallSince = map[stallKey]uint64{}
		return s
	}
	wd.stallSince = seen
	s.Value = float64(oldest)
	s.Rank = oldestKey.rank
	s.Level = level(float64(oldest), float64(wd.cfg.StallWarnPulses), float64(wd.cfg.StallCriticalPulses))
	if s.Level > WatchOK {
		s.Detail = fmt.Sprintf("block %d pinned at rank %d for %d pulses", oldestKey.block, oldestKey.rank, oldest)
	}
	return s
}

// retransmitCount returns the cumulative timer-driven resend count (a
// world without the layer pays nothing for the question).
func (w *World) retransmitCount() uint64 {
	if w.relw == nil {
		return 0
	}
	return w.DeliveryStats().Retransmits
}

// Health returns the watchdogs' state as of the last pulse. With the
// pulse off it returns Enabled=false.
func (w *World) Health() HealthReport {
	if w.pulse == nil {
		return HealthReport{}
	}
	wd := w.pulse.wd
	wd.mu.Lock()
	defer wd.mu.Unlock()
	return HealthReport{
		Enabled:   true,
		Pulse:     wd.pulse,
		Time:      wd.now,
		Level:     wd.worst,
		Watchdogs: append([]WatchdogStatus(nil), wd.status...),
	}
}

// OnWatchdogTrip registers fn to run whenever a watchdog escalates.
// Callbacks run in tick context (see OnPulse; under EngineGo they must not
// call World.Stop) after the evaluation lock is released, so they may call
// Health. With the pulse off the registration is a no-op: nothing trips.
func (w *World) OnWatchdogTrip(fn func(WatchdogEvent)) {
	if w.pulse == nil {
		return
	}
	wd := w.pulse.wd
	wd.mu.Lock()
	wd.trips = append(wd.trips, fn)
	wd.mu.Unlock()
}

// AwaitHealth advances the world until the worst watchdog level reaches
// want (or, for WatchOK, returns to it); see network.await.
func (w *World) AwaitHealth(want WatchLevel, timeout time.Duration) bool {
	return w.net.await(func() bool {
		lvl := w.Health().Level
		return lvl == want || want != WatchOK && lvl > want
	}, timeout)
}

// InjectMigrationStall arms an anomaly hook for tests, experiments, and
// the demo's health tour: every migration's data-install step defers
// and re-queues itself while armed, leaving the block pinned at its old
// owner with arrivals queuing behind the pin — the exact pathology the
// migration-stall watchdog exists to catch. The returned release
// restores normal processing; pending installs then complete. The
// un-armed check is one atomic load on the (non-hot) migration path.
func (w *World) InjectMigrationStall() (release func()) {
	w.migStall.Store(true)
	return func() { w.migStall.Store(false) }
}
