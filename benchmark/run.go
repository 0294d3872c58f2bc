package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"nmvgas/internal/trace"
	"nmvgas/vgas"
)

// application is what the pass runner needs from xorupdate and rma.
type application interface {
	// alloc creates the table; scale shrinks any set-up work with the run.
	alloc(scale float64) error
	launch()
	// advance makes progress until target ops have completed or the wall
	// clock reaches until; false means the engine ran dry first.
	advance(target int64, until time.Time) bool
	completed() int64
	// setStopping(true) makes the generators stop issuing; drain then waits
	// for what is in flight. After setStopping(false), launch starts them
	// again.
	setStopping(on bool)
	drain(until time.Time) bool
	verify(seed int64) verdict
	stats() appStats
	// setQuota fixes each generator's op count (0 = run until stopped);
	// call before launch.
	setQuota(quota int64)
	// traceUnder names the driver span that sampled-op spans hang under.
	traceUnder(parent int32)
	generators() int
}

func (a *xorApp) setQuota(q int64)   { a.quota = q }
func (a *xorApp) traceUnder(p int32) { a.opParent.Store(p) }
func (a *xorApp) generators() int    { return len(a.ranks) }
func (a *rmaApp) setQuota(q int64)   { a.quota = q }
func (a *rmaApp) traceUnder(p int32) { a.opParent.Store(p) }
func (a *rmaApp) generators() int    { return len(a.clients) }

// sliceDur is the length of one slice of the timed section. A slice holds
// several GC cycles, so the per-slice rates whose median is reported are
// all of the same kind, and it is short enough that the host's speed,
// sampled before and after it, is the speed it ran at.
const sliceDur = 125 * time.Millisecond

// snap is the state of the world and the process at one instant.
type snap struct {
	t      time.Time
	ops    int64
	cpu    float64 // process user+sys seconds
	events uint64
	sim    vgas.VTime

	// filled by fullSnap only
	stats vgas.WorldStats
	tbl   tableStats
	mem   runtime.MemStats
}

type tableStats struct{ hits, misses, updates uint64 }

// slice is one stretch of the timed section: what the application did
// between a resume and the next pause, and how slow the host was then.
type slice struct {
	t0, t1 int64 // host ns since the pass epoch, to assign latency samples
	wall   float64
	ops    int64
	cpu    float64
	events uint64
	slow   float64 // hostSlowdown, mean of the samples before and after
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func lightSnap(w *vgas.World, a application) snap {
	s := snap{t: time.Now(), ops: a.completed(), cpu: cpuSeconds(), sim: w.Now()}
	if w.Config().Engine == vgas.EngineDES {
		s.events = w.Engine().Processed()
	}
	return s
}

func fullSnap(w *vgas.World, a application) snap {
	s := lightSnap(w, a)
	s.stats = w.Stats()
	if fab := w.Fabric(); fab != nil {
		for r := 0; r < w.Ranks(); r++ {
			h, m, _, u := fab.NIC(r).Table.Stats()
			s.tbl.hits += h
			s.tbl.misses += m
			s.tbl.updates += u
		}
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// passOpts selects how one pass over a workload runs.
type passOpts struct {
	seed int64
	// seconds is the length of the timed section. With fixedOps > 0 the
	// section is that many ops instead (whole world, after the warm-up):
	// tests and differential probes use it because its counters repeat.
	seconds  float64
	fixedOps int64
	// warmScale scales the workload's warm-up (1 = as calibrated).
	warmScale float64
	rec       *recorder // nil = untraced
	hooks     bool      // every optional hook on (the all-on differential)
	setupOnly bool      // build, warm up, tear down: one set-up sample
	hard      time.Time // past this, whatever is unfinished counts as failed
}

// passResult is everything one pass measured.
type passResult struct {
	wl     *workload
	epoch  time.Time // base of the latency samples' timestamps
	setupS float64   // host seconds, as measured
	// setupSlow is hostSlowdown over the set-up (mean of the samples
	// before and after); 1 on fixed-op passes, which take no samples.
	setupSlow float64
	launch    snap // just before the first op
	warmEnd   snap // end of warm-up = start of the timed section
	// warmT1 is the host time (ns since epoch) at which the warm-up ended
	// and the first rest began.
	warmT1 int64
	end    snap // end of the timed section
	slices []slice
	fixed  bool

	verdict       verdict
	app           appStats
	verifyS       float64
	final         vgas.WorldStats // after the full drain
	queueDepthMax int
	wedged        bool // the hard deadline passed
}

// buildWorld constructs the world a workload describes. Everything
// seedable derives from seed.
func buildWorld(wl *workload, seed int64, hooks bool) (*vgas.World, error) {
	cfg := vgas.Config{
		Ranks: wl.Ranks, Mode: wl.Mode, Engine: wl.Engine, Shards: wl.shards(),
		NICTableCap: wl.TableCap, Seed: seed, Faults: wl.Faults,
		RequireMigration: wl.MigEvery > 0,
	}
	if cfg.Faults.Enabled() {
		cfg.Faults.Seed = int64(mix64(uint64(seed)) >> 1)
	}
	if wl.Topo != "" {
		topo, err := vgas.ParseTopology(wl.Topo, wl.Ranks)
		if err != nil {
			return nil, err
		}
		cfg.Topology = topo
	}
	if hooks {
		cfg.Metrics = true
		cfg.Heat = vgas.HeatConfig{Enabled: true, SampleShift: 4}
		cfg.Pulse = vgas.PulseConfig{Enabled: true}
	}
	w, err := vgas.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	if hooks {
		trace.NewFlight(w, trace.FlightConfig{SampleShift: 4})
	}
	return w, nil
}

func newApp(wl *workload, w *vgas.World, seed int64, epoch time.Time, rec *recorder) application {
	if wl.App == appRMA {
		return newRMAApp(wl, w, seed, epoch, rec)
	}
	return newXorApp(wl, w, seed, epoch, rec)
}

// runPass builds a world for wl, warms it up, measures the timed section,
// verifies the outcome and stops the world — on every path.
func runPass(wl *workload, o passOpts) (res *passResult, err error) {
	rec := o.rec
	epoch := time.Now()
	if rec != nil {
		epoch = rec.epoch
	}
	if o.warmScale <= 0 {
		o.warmScale = 1
	}
	res = &passResult{wl: wl, epoch: epoch}
	root := rec.begin("pass "+wl.Name, noParent)
	defer rec.end(root)

	// Fixed-op passes exist for their counters and report host times as
	// measured; only timed passes sample the host's speed.
	timedPass := o.fixedOps == 0
	slow := 1.0
	if timedPass {
		slow = hostSlowdown()
	}
	t0 := time.Now()
	sp := rec.begin("vgas.NewWorld", root)
	w, err := buildWorld(wl, o.seed, o.hooks)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	defer func() {
		sp := rec.begin("World.Stop", root)
		w.Stop()
		rec.end(sp)
	}()
	app := newApp(wl, w, o.seed, epoch, rec)

	sp = rec.begin("World.Start", root)
	w.Start()
	rec.end(sp)

	sp = rec.begin("AllocCyclic", root)
	err = app.alloc(o.warmScale)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: alloc: %w", wl.Name, err)
	}

	gens := int64(app.generators())
	warm := int64(float64(wl.WarmOps) * o.warmScale)
	if warm < gens {
		warm = gens
	}
	var quota int64
	if o.fixedOps > 0 {
		quota = (warm + o.fixedOps + gens - 1) / gens
	}
	app.setQuota(quota)

	res.launch = fullSnap(w, app)
	sp = rec.begin("warmup", root)
	app.traceUnder(sp)
	app.launch()
	alive := app.advance(warm, o.hard)
	if timedPass {
		alive = pause(wl, app, o.hard) && alive
	}
	rec.end(sp)
	res.setupS = time.Since(t0).Seconds()
	res.warmT1 = int64(time.Since(epoch))
	res.setupSlow = slow
	if timedPass {
		slow = hostSlowdown()
		res.setupSlow = (res.setupSlow + slow) / 2
	}
	res.warmEnd = fullSnap(w, app)

	timed := rec.begin("timed", root)
	app.traceUnder(timed)
	switch {
	case !alive || o.setupOnly:
	case timedPass:
		alive = res.timedLoop(w, app, timed, o, slow)
	default:
		alive = app.advance(quota*gens, o.hard)
	}
	if timedPass {
		// A timed section ends when its time is up, with ops in flight;
		// a fixed-op one ends when the last op has completed.
		res.end = fullSnap(w, app)
		app.setStopping(true)
	}
	drained := app.drain(o.hard)
	if wl.Engine == vgas.EngineDES {
		// Flush what the ops left behind (acks, retransmit timers), still
		// bounded by the hard deadline.
		w.Engine().RunUntilStride(func() bool { return !time.Now().Before(o.hard) }, 4096)
	}
	if !timedPass {
		res.end = fullSnap(w, app)
	}
	rec.end(timed)
	res.wedged = !drained || !alive || !time.Now().Before(o.hard)

	// Counters are read before the read-back: its own last reply would
	// otherwise be caught awaiting its ack.
	res.final = w.Stats()
	sp = rec.begin("verify", root)
	tv := time.Now()
	if res.wedged {
		// A wedged world may never answer the read-back; count what is
		// known and let the caller exit.
		res.verdict = verdict{Attempted: app.completed() + 1, Unfinished: 1}
		res.verdict.note("hard deadline passed or engine ran dry with ops outstanding")
	} else {
		res.verdict = app.verify(o.seed)
		checkCounters(&res.verdict, wl, res.final)
	}
	res.verifyS = time.Since(tv).Seconds()
	rec.end(sp)
	res.app = app.stats()
	return res, nil
}

// pause brings the application to rest between two slices of the timed
// section, so the reference kernel has the host to itself, and resume sets
// it going again. On the DES engine the simulation only runs inside
// advance, so both do nothing there.
func pause(wl *workload, app application, until time.Time) bool {
	if wl.Engine == vgas.EngineDES {
		return true
	}
	app.setStopping(true)
	return app.drain(until)
}

func resume(wl *workload, app application) {
	if wl.Engine == vgas.EngineDES {
		return
	}
	app.setStopping(false)
	app.launch()
}

// timedLoop runs the timed section: slices of the application running,
// with the application at rest and the reference kernel running between
// them. Only the slices count towards o.seconds. slow is the host
// slowdown sampled just before the first slice.
func (res *passResult) timedLoop(w *vgas.World, app application, timed int32, o passOpts, slow float64) bool {
	rec := o.rec
	left := time.Duration(o.seconds * float64(time.Second))
	prevStats := res.warmEnd.stats
	for left > 0 {
		d := sliceDur
		if d > left {
			d = left
		}
		sp := rec.begin("slice", timed)
		resume(res.wl, app)
		a := lightSnap(w, app)
		until := a.t.Add(d)
		if until.After(o.hard) {
			until = o.hard
		}
		alive := app.advance(math.MaxInt64, until)
		alive = pause(res.wl, app, o.hard) && alive
		b := lightSnap(w, app)
		if rec != nil {
			st := w.Stats()
			rec.end(sp,
				count{"ops", float64(b.ops - a.ops)},
				count{"events", float64(b.events - a.events)},
				count{"parcels_run", float64(st.ParcelsRun - prevStats.ParcelsRun)},
				count{"net_msgs", float64(st.NetSent - prevStats.NetSent)},
				count{"net_forwards", float64(st.NetForwards - prevStats.NetForwards)},
				count{"migrations", float64(st.Migrations - prevStats.Migrations)},
			)
			prevStats = st
			for _, d := range w.QueueDepths() {
				if d > res.queueDepthMax {
					res.queueDepthMax = d
				}
			}
		}
		next := hostSlowdown()
		res.slices = append(res.slices, slice{
			t0: int64(a.t.Sub(res.epoch)), t1: int64(b.t.Sub(res.epoch)),
			wall: b.t.Sub(a.t).Seconds(), ops: b.ops - a.ops,
			cpu: b.cpu - a.cpu, events: b.events - a.events,
			slow: (slow + next) / 2,
		})
		slow = next
		left -= b.t.Sub(a.t)
		if !alive || !b.t.Before(o.hard) {
			return false
		}
	}
	return true
}

// checkCounters applies the counter invariants that are part of the
// number: nothing left unacknowledged, and on xorupdate at least two
// parcels run per op (the update and its continuation).
func checkCounters(v *verdict, wl *workload, st vgas.WorldStats) {
	if st.Unacked != 0 {
		v.Other += int64(st.Unacked)
		v.note("%d messages still unacknowledged after the drain", st.Unacked)
	}
	if wl.App == appXor && st.ParcelsRun < 2*v.Attempted {
		v.Other += 2*v.Attempted - st.ParcelsRun
		v.note("ParcelsRun %d < 2 × %d ops", st.ParcelsRun, v.Attempted)
	}
	if wl.App == appRMA && st.PutOps+st.GetOps < v.Attempted {
		v.Other += v.Attempted - st.PutOps - st.GetOps
		v.note("PutOps+GetOps %d < %d ops", st.PutOps+st.GetOps, v.Attempted)
	}
}

// --- derived numbers -------------------------------------------------
//
// Host times of a timed pass are reported in reference seconds: each
// slice's rate or cost is corrected by the host slowdown sampled around
// it, and the median over the slices is the number. Fixed-op passes have
// no slices and report whole-section values as measured.

func (res *passResult) timedOps() int64      { return res.end.ops - res.warmEnd.ops }
func (res *passResult) timedEvents() float64 { return float64(res.end.events - res.warmEnd.events) }

// timedWall is the host time the application ran for in the timed
// section, as measured: the slices without the rests between them.
func (res *passResult) timedWall() float64 {
	if len(res.slices) == 0 {
		return res.end.t.Sub(res.warmEnd.t).Seconds()
	}
	var sum float64
	for _, s := range res.slices {
		sum += s.wall
	}
	return sum
}

// perSlice returns the median of f over the slices that completed work,
// or whole when the pass has no slices.
func (res *passResult) perSlice(f func(slice) float64, whole float64) float64 {
	var xs []float64
	for _, s := range res.slices {
		if s.ops > 0 && s.wall > 0 {
			xs = append(xs, f(s))
		}
	}
	if len(xs) == 0 {
		return whole
	}
	return median(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (res *passResult) opsPerS() float64 {
	return res.perSlice(func(s slice) float64 { return float64(s.ops) / s.wall * s.slow },
		ratio(float64(res.timedOps()), res.timedWall()))
}

// rawOpsPerS is ops per host second as measured, no correction.
func (res *passResult) rawOpsPerS() float64 {
	return ratio(float64(res.timedOps()), res.timedWall())
}

func (res *passResult) cpuUsPerOp() float64 {
	return res.perSlice(func(s slice) float64 { return s.cpu * 1e6 / float64(s.ops) / s.slow },
		ratio((res.end.cpu-res.warmEnd.cpu)*1e6, float64(res.timedOps())))
}

func (res *passResult) eventsPerS() float64 {
	return res.perSlice(func(s slice) float64 { return float64(s.events) / s.wall * s.slow },
		ratio(res.timedEvents(), res.timedWall()))
}

// slowdown is the median host slowdown over the timed section's slices.
func (res *passResult) slowdown() float64 {
	return res.perSlice(func(s slice) float64 { return s.slow }, 1)
}

// setupRefS is the set-up time in reference seconds.
func (res *passResult) setupRefS() float64 { return res.setupS / res.setupSlow }

// simUsPerOp is simulated time per op over the timed section.
func (res *passResult) simUsPerOp() float64 {
	return ratio((res.end.sim - res.warmEnd.sim).Micros(), float64(res.timedOps()))
}

// simUsPerOpExact is the same quantity over the warm-up, whose op count
// is fixed: on the DES engine it repeats bit for bit for a given seed.
func (res *passResult) simUsPerOpExact() float64 {
	return ratio((res.warmEnd.sim - res.launch.sim).Micros(), float64(res.warmEnd.ops-res.launch.ops))
}

// sliceSamples returns, for each slice, the latencies (µs, as measured)
// of the sampled ops of the given kinds that completed inside it. On the
// DES engine an op can be in flight across the rest between two slices,
// with the simulation standing still; the rests it spans are taken out of
// its latency.
func (res *passResult) sliceSamples(kinds ...int) [][]float64 {
	var all []latSample
	for _, k := range kinds {
		all = append(all, res.app.lat[k]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	out := make([][]float64, len(res.slices))
	i := 0
	for n, s := range res.slices {
		for i < len(all) && all[i].end < s.t0 {
			i++
		}
		for ; i < len(all) && all[i].end <= s.t1; i++ {
			start, dur := all[i].end-all[i].dur, all[i].dur
			// The rest before slice k runs from the end of slice k-1 (of
			// the warm-up, for the first) to the start of slice k.
			for k := n; k >= 0 && start < res.slices[k].t0; k-- {
				from := res.warmT1
				if k > 0 {
					from = res.slices[k-1].t1
				}
				if start > from {
					from = start
				}
				dur -= res.slices[k].t0 - from
			}
			out[n] = append(out[n], float64(dur)/1e3)
		}
	}
	return out
}

// latencies returns the sampled op latencies (µs, as measured) of the
// timed section for the given kinds.
func (res *passResult) latencies(kinds ...int) []float64 {
	var out []float64
	if len(res.slices) > 0 {
		for _, durs := range res.sliceSamples(kinds...) {
			out = append(out, durs...)
		}
		return out
	}
	lo := int64(res.warmEnd.t.Sub(res.epoch))
	hi := int64(res.end.t.Sub(res.epoch))
	for _, k := range kinds {
		for _, s := range res.app.lat[k] {
			if s.end >= lo && s.end <= hi {
				out = append(out, float64(s.dur)/1e3)
			}
		}
	}
	return out
}

// opP50Us is the median op latency in reference µs: the median of each
// slice's samples, corrected by that slice's slowdown, and the median of
// those. Without slices it is the plain median of every sample.
func (res *passResult) opP50Us() float64 {
	if len(res.slices) == 0 {
		return median(res.latencies(kindGet, kindPut, kindVec))
	}
	var meds []float64
	for n, durs := range res.sliceSamples(kindGet, kindPut, kindVec) {
		if len(durs) > 0 {
			meds = append(meds, median(durs)/res.slices[n].slow)
		}
	}
	return median(meds)
}
