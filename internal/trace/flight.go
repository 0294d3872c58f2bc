// Flight recorder: an always-on, fixed-memory trace ring that, when a
// watchdog trips (or on demand), dumps a correlated diagnostic bundle —
// the last window of protocol events as a Perfetto-loadable trace plus
// the counters, membership, heat, and watchdog state at the moment of the
// anomaly. The recording path is the plain Ring record (zero allocations
// once the ring is full); bundle capture allocates, but only on trips.
package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"

	"nmvgas/internal/runtime"
)

// FlightConfig tunes the recorder.
type FlightConfig struct {
	// Capacity is the retained event window across all ranks (0 = 8192).
	Capacity int
	// SampleShift records 1 in 2^shift events (0 = every event). High-
	// rate workloads use it to stretch the retained window at the same
	// memory cost; the ring stays a faithful sample of the tail.
	SampleShift uint
	// MaxBundles bounds the retained trip bundles (0 = 4); older bundles
	// fall off the front.
	MaxBundles int
}

func (c FlightConfig) withDefaults() FlightConfig {
	if c.Capacity <= 0 {
		c.Capacity = 8192
	}
	if c.SampleShift > 20 {
		c.SampleShift = 20
	}
	if c.MaxBundles <= 0 {
		c.MaxBundles = 4
	}
	return c
}

// Bundle is one correlated diagnostic capture. Everything in it refers
// to the same instant: the health report that (for trip captures)
// contains the escalated watchdog, the world counters, membership and
// heat state, an optional Prometheus-registry snapshot, and the retained
// trace window in Chrome trace-event JSON.
type Bundle struct {
	// Trigger names what caused the capture: "watchdog:<name>" for
	// trips, or the caller's tag for on-demand snapshots.
	Trigger string `json:"trigger"`
	// Level is the worst watchdog level at capture time.
	Level runtime.WatchLevel `json:"level"`
	// Detail carries the tripping watchdog's one-liner ("" on demand).
	Detail string `json:"detail,omitempty"`
	// Pulse and Time locate the capture on the pulse/trace clock.
	Pulse uint64 `json:"pulse"`
	Time  int64  `json:"time_ns"`

	Health  runtime.HealthReport `json:"health"`
	Stats   runtime.WorldStats   `json:"stats"`
	Members []string             `json:"members"`
	HeatTop []runtime.HeatSample `json:"heat_top,omitempty"`
	// Trace is the retained event window as Chrome trace-event JSON
	// (load it in Perfetto).
	Trace json.RawMessage `json:"trace"`
	// TraceEvents and TraceTotal size the window: retained vs observed.
	TraceEvents int    `json:"trace_events"`
	TraceTotal  uint64 `json:"trace_total"`
}

// Flight couples a per-rank sampled Ring to a world. Create it before
// w.Start (it installs itself as the world's tracer), then Arm it to
// capture on watchdog trips.
type Flight struct {
	w    *runtime.World
	ring *Ring
	cfg  FlightConfig
	mask uint64
	n    atomic.Uint64

	mu      sync.Mutex
	bundles []*Bundle
}

// NewFlight builds the recorder and installs it as w's tracer. Must run
// before w.Start, like Attach.
func NewFlight(w *runtime.World, cfg FlightConfig) *Flight {
	cfg = cfg.withDefaults()
	f := &Flight{
		w:    w,
		ring: newRing(cfg.Capacity, w.Ranks()),
		cfg:  cfg,
		mask: 1<<cfg.SampleShift - 1,
	}
	w.SetTracer(f.Record)
	return f
}

// Ring exposes the underlying event ring (for /trace.json and tests).
func (f *Flight) Ring() *Ring { return f.ring }

// Record is the tracer hook: count every event, retain 1 in 2^shift.
// With shift 0 it is exactly Ring.Record — zero allocations once the
// ring is full.
func (f *Flight) Record(ev runtime.TraceEvent) {
	if f.mask != 0 && f.n.Add(1)&f.mask != 0 {
		return
	}
	f.ring.Record(ev)
}

// Arm registers the trip capture: every watchdog escalation dumps a
// bundle. A world without watchdogs makes this a no-op.
func (f *Flight) Arm() {
	f.w.OnWatchdogTrip(func(ev runtime.WatchdogEvent) {
		b := f.capture("watchdog:" + ev.Status.Name)
		b.Detail = ev.Status.Detail
		f.keep(b)
	})
}

// Snapshot captures an on-demand bundle (the /debug/flight path). It
// does not enter the retained trip-bundle history.
func (f *Flight) Snapshot(trigger string) *Bundle {
	return f.capture(trigger)
}

func (f *Flight) capture(trigger string) *Bundle {
	h := f.w.Health()
	b := &Bundle{
		Trigger: trigger,
		Level:   h.Level,
		Pulse:   h.Pulse,
		Time:    int64(h.Time),
		Health:  h,
		Stats:   f.w.Stats(),
		HeatTop: f.w.HeatTop(8),
	}
	for r := 0; r < f.w.Ranks(); r++ {
		b.Members = append(b.Members, f.w.MemberState(r).String())
	}
	var buf bytes.Buffer
	if err := f.ring.DumpChrome(&buf); err == nil {
		b.Trace = json.RawMessage(buf.Bytes())
	}
	b.TraceEvents = len(f.ring.Events())
	b.TraceTotal = f.ring.Total()
	return b
}

func (f *Flight) keep(b *Bundle) {
	f.mu.Lock()
	f.bundles = append(f.bundles, b)
	if over := len(f.bundles) - f.cfg.MaxBundles; over > 0 {
		f.bundles = append([]*Bundle(nil), f.bundles[over:]...)
	}
	f.mu.Unlock()
}

// Bundles returns the retained trip bundles, oldest first.
func (f *Flight) Bundles() []*Bundle {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Bundle(nil), f.bundles...)
}

// Latest returns the most recent trip bundle (nil when none tripped).
func (f *Flight) Latest() *Bundle {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.bundles) == 0 {
		return nil
	}
	return f.bundles[len(f.bundles)-1]
}

// WriteBundle JSON-encodes b to w (indented: bundles are for humans and
// artifact diffing).
func WriteBundle(w io.Writer, b *Bundle) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
