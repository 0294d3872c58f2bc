package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"nmvgas/vgas"
)

// twinShare is the part of --seconds a goroutine-engine workload spends
// on its DES twin.
const twinShare = 0.3

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) absorb(v verdict) {
	r.Attempted += v.Attempted
	r.Failed += v.failed()
}

// hardDeadline bounds one invocation: ten times the requested run, never
// more than the two minutes that leave room to report inside the driver's
// three.
func hardDeadline(seconds float64) time.Time {
	d := time.Duration(10*seconds*float64(time.Second)) + 30*time.Second
	if d > 120*time.Second {
		d = 120 * time.Second
	}
	return time.Now().Add(d)
}

// runWorkloads runs one workload (or all), prints a readable table and
// then the result line, and returns the process exit code.
func runWorkloads(out io.Writer, name string, seed int64, seconds float64, traced bool, traceTo string) int {
	list := workloads
	if name != "" {
		wl := findWorkload(name)
		if wl == nil {
			fmt.Fprintf(out, "unknown workload %q; -list shows the names\n", name)
			return 2
		}
		list = []workload{*wl}
	}
	code := 0
	for i := range list {
		wl := &list[i]
		var (
			res   result
			notes []string
			err   error
			defs  = endToEnd
		)
		if traced {
			defs = perLayer
			path := traceTo
			if path == "" {
				path = filepath.Join("benchmark", "out", "trace-"+wl.Name+".json")
			}
			res, notes, err = measurePerLayer(out, wl, seed, seconds, 1, path)
		} else {
			res, notes, err = measureEndToEnd(wl, seed, seconds, 1)
		}
		if err != nil {
			fmt.Fprintf(out, "%s: %v\n", wl.Name, err)
			return 1
		}
		printResult(out, wl, defs, res, notes)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// setupRuns is how many worlds an untraced run sets up: the last one is
// the one measured, the others are built, warmed up and torn down only
// for their set-up time.
const setupRuns = 5

// measureEndToEnd is the untraced run: set-up setupRuns times, the timed
// section in the last of those worlds, verification, and on a
// goroutine-engine workload the DES twin.
func measureEndToEnd(wl *workload, seed int64, seconds, warmScale float64) (result, []string, error) {
	hard := hardDeadline(seconds)
	var setups []float64
	for i := 1; i < setupRuns; i++ {
		p, err := runPass(wl, passOpts{seed: seed, warmScale: warmScale, setupOnly: true, hard: hard})
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, p.setupRefS())
		runtime.GC()
	}
	mainSeconds := seconds
	if wl.Twin != nil {
		mainSeconds = seconds * (1 - twinShare)
	}
	main, err := runPass(wl, passOpts{seed: seed, seconds: mainSeconds, warmScale: warmScale, hard: hard})
	if err != nil {
		return result{}, nil, err
	}
	setups = append(setups, main.setupRefS())
	res := result{Metrics: map[string]metricValue{}}
	res.absorb(main.verdict)
	notes := main.verdict.Notes

	sim := main
	if wl.Twin != nil {
		runtime.GC()
		sim, err = runPass(wl.Twin, passOpts{seed: seed, seconds: seconds * twinShare, warmScale: warmScale, hard: hard})
		if err != nil {
			return result{}, nil, err
		}
		res.absorb(sim.verdict)
		notes = append(notes, sim.verdict.Notes...)
	}
	values := map[string]float64{
		"ops_per_s":        main.opsPerS(),
		"op_p50_us":        main.opP50Us(),
		"cpu_us_per_op":    main.cpuUsPerOp(),
		"sim_events_per_s": sim.eventsPerS(),
		"sim_us_per_op":    sim.simUsPerOp(),
		"setup_s":          median(setups),
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		if values[m.Name] <= 0 {
			res.Failed++
			notes = append(notes, fmt.Sprintf("%s is not positive: the run measured nothing", m.Name))
		}
	}
	res.Correct = res.Failed == 0
	return res, notes, nil
}

// measurePerLayer is the traced run: an untraced and a traced pass of a
// quarter of --seconds each (their difference is the tracing overhead),
// the span file, the workload's differential probes, and every isolated
// probe.
func measurePerLayer(out io.Writer, wl *workload, seed int64, seconds, warmScale float64, tracePath string) (result, []string, error) {
	hard := hardDeadline(seconds)
	res := result{Metrics: map[string]metricValue{}}
	v := map[string]float64{}

	plain, err := runPass(wl, passOpts{seed: seed, seconds: seconds / 4, warmScale: warmScale, hard: hard})
	if err != nil {
		return res, nil, err
	}
	res.absorb(plain.verdict)
	notes := plain.verdict.Notes
	runtime.GC()

	rec := newRecorder()
	tr, err := runPass(wl, passOpts{seed: seed, seconds: seconds / 4, warmScale: warmScale, rec: rec, hard: hard})
	if err != nil {
		return res, nil, err
	}
	res.absorb(tr.verdict)
	notes = append(notes, tr.verdict.Notes...)
	spans := rec.collect()
	self := selfTimes(spans)
	if err := writeChromeTrace(tracePath, spans, self); err != nil {
		return res, nil, fmt.Errorf("span file: %w", err)
	}
	runtime.GC()

	counterRows(v, plain)
	v["runtime.go.queue_depth_max"] = float64(tr.queueDepthMax)
	v["trace.overhead_pct"] = (1 - ratio(tr.opsPerS(), plain.opsPerS())) * 100
	v["trace.spans"] = float64(len(spans))
	v["driver.fail_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))

	if err := differentialRows(v, wl, seed, seconds, warmScale, hard, &res, &notes); err != nil {
		return res, nil, err
	}
	for name, val := range runProbes("", scaleIters(warmScale)) {
		v[name] = val
	}
	if wl.Engine == vgas.EngineDES && wl.shards() == 0 {
		itemiseEventCost(out, v)
	}
	printSpanTotals(out, spans, self, tracePath)

	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{v[m.Name], m.Unit}
	}
	res.Correct = res.Failed == 0
	return res, notes, nil
}

// counterRows fills the C rows (counter deltas over the timed section)
// and the driver rows from an untraced pass.
func counterRows(v map[string]float64, p *passResult) {
	a, b := &p.warmEnd, &p.end
	ops := float64(p.timedOps())
	d := func(x, y int64) float64 { return float64(y - x) }
	u := func(x, y uint64) float64 { return float64(y - x) }

	if p.wl.Engine == vgas.EngineDES {
		events := p.timedEvents()
		row := "netsim.engine.ns_per_event"
		if p.wl.shards() > 0 {
			row = "netsim.par.ns_per_event"
		}
		v[row] = ratio(p.timedWall()*1e9, events)
		v["netsim.events_per_op"] = ratio(events, ops)
		v["netsim.nic.table_hit_ratio"] = ratio(u(a.tbl.hits, b.tbl.hits), u(a.tbl.hits, b.tbl.hits)+u(a.tbl.misses, b.tbl.misses))
		v["netsim.nic.forwards_per_op"] = ratio(u(a.stats.NetForwards, b.stats.NetForwards), ops)
		v["netsim.nic.nacks_per_op"] = ratio(u(a.stats.NetNacks, b.stats.NetNacks), ops)
		v["netsim.nic.table_updates_per_migration"] = ratio(u(a.stats.NICTableUpds, b.stats.NICTableUpds), d(a.stats.Migrations, b.stats.Migrations))
		msgs := u(a.stats.NetSent, b.stats.NetSent)
		v["netsim.fabric.msgs_per_op"] = ratio(msgs, ops)
		v["netsim.fabric.bytes_per_op"] = ratio(u(a.stats.NetBytes, b.stats.NetBytes), ops)
		da, db := a.stats.Delivery, b.stats.Delivery
		v["netsim.faults.dropped_per_kmsg"] = ratio(1000*u(da.Faults.Dropped, db.Faults.Dropped), msgs)
		v["netsim.faults.duplicated_per_kmsg"] = ratio(1000*u(da.Faults.Duplicated, db.Faults.Duplicated), msgs)
		v["runtime.reliable.retransmits_per_kmsg"] = ratio(1000*u(da.Retransmits, db.Retransmits), msgs)
		v["runtime.reliable.dups_suppressed_per_kmsg"] = ratio(1000*u(da.DupsSuppressed, db.DupsSuppressed), msgs)
		v["_tbl_lookups_per_op"] = ratio(u(a.tbl.hits, b.tbl.hits)+u(a.tbl.misses, b.tbl.misses), ops)
		v["_tbl_updates_per_op"] = ratio(u(a.tbl.updates, b.tbl.updates), ops)
		v["driver.sim_us_per_op_exact"] = p.simUsPerOpExact()
		v["runtime.migrate.sim_us"] = median(p.app.migSim)
	}
	v["runtime.reliable.unacked_at_end"] = float64(p.final.Unacked)
	v["runtime.migrate.count"] = d(a.stats.Migrations, b.stats.Migrations)
	v["runtime.migrate.host_us"] = median(p.app.migHost)
	v["runtime.host_forwards_per_op"] = ratio(d(a.stats.HostForwards, b.stats.HostForwards), ops)
	v["runtime.host_nacks_per_op"] = ratio(d(a.stats.HostNacks, b.stats.HostNacks), ops)
	v["runtime.queued_per_op"] = ratio(d(a.stats.Queued, b.stats.Queued), ops)
	v["runtime.local_run_ratio"] = ratio(d(a.stats.LocalRuns, b.stats.LocalRuns), d(a.stats.ParcelsRun, b.stats.ParcelsRun))

	lat := summarize(p.latencies(kindGet, kindPut, kindVec))
	v["driver.op_samples"] = float64(lat.Samples)
	v["driver.op_p99_us"], v["driver.op_p999_us"] = lat.P99, lat.P999
	v["driver.op_tail_us"], v["driver.op_tail_pct"] = lat.Tail, lat.TailPct
	if p.wl.App == appRMA {
		v["driver.get_p50_us"] = median(p.latencies(kindGet))
		v["driver.put_p50_us"] = median(p.latencies(kindPut))
		v["driver.vec_p50_us"] = median(p.latencies(kindVec))
	}
	v["driver.allocs_per_op"] = ratio(u(a.mem.Mallocs, b.mem.Mallocs), ops)
	v["driver.alloc_bytes_per_op"] = ratio(u(a.mem.TotalAlloc, b.mem.TotalAlloc), ops)
	v["driver.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	v["driver.gc_pause_total_ms"] = u(a.mem.PauseTotalNs, b.mem.PauseTotalNs) / 1e6
	v["driver.peak_rss_mb"] = peakRSSMB()
	v["driver.gen_share"] = ratio(ratio(float64(p.app.genNs), float64(p.app.genN)), p.cpuUsPerOp()*1e3)
	v["driver.verify_s"] = p.verifyS
	v["driver.host_slowdown"] = p.slowdown()
	v["driver.raw_ops_per_s"] = p.rawOpsPerS()
}

// differentialRows runs the D probes that belong to wl: the same workload
// in two configurations, set up and warmed up in full and then timed over
// a fixed op count a quarter of the warm-up's, so the simulated ratios
// repeat exactly.
func differentialRows(v map[string]float64, wl *workload, seed int64, seconds, warmScale float64, hard time.Time, res *result, notes *[]string) error {
	quarter := func(mod func(*workload), o passOpts) (*passResult, error) {
		c := *wl
		c.Twin = nil
		if mod != nil {
			mod(&c)
		}
		o.seed, o.hard, o.warmScale = seed, hard, warmScale
		if o.seconds == 0 {
			o.fixedOps = int64(float64(wl.WarmOps)*warmScale) / 4
		}
		p, err := runPass(&c, o)
		if err != nil {
			return nil, err
		}
		res.absorb(p.verdict)
		*notes = append(*notes, p.verdict.Notes...)
		runtime.GC()
		return p, nil
	}
	pair := func(modA, modB func(*workload), f func(a, b *passResult) float64) (float64, error) {
		a, err := quarter(modA, passOpts{})
		if err != nil {
			return 0, err
		}
		b, err := quarter(modB, passOpts{})
		if err != nil {
			return 0, err
		}
		return f(a, b), nil
	}
	simRatio := func(a, b *passResult) float64 { return ratio(a.simUsPerOp(), b.simUsPerOp()) }
	wallRatio := func(a, b *passResult) float64 { return ratio(a.timedWall(), b.timedWall()) }
	var err error
	switch wl.Name {
	case "des_churn":
		v["agas.sw_over_nm_sim_ratio"], err = pair(func(c *workload) { c.Mode = vgas.AGASSW }, nil, simRatio)
		if err != nil {
			return err
		}
		still := func(c *workload) { c.MigEvery = 0 }
		v["pgas.nm_over_pgas_sim_ratio"], err = pair(still, func(c *workload) { c.MigEvery, c.Mode = 0, vgas.PGAS }, simRatio)
	case "des_scale":
		v["netsim.par.speedup_vs_classic"], err = pair(func(c *workload) { c.Shards = 0 }, nil, wallRatio)
	case "des_chaos":
		v["runtime.reliable.chaos_slowdown"], err = pair(nil, func(c *workload) { c.Faults = vgas.FaultPlan{} }, wallRatio)
	case "go_parcels":
		var off, on *passResult
		if off, err = quarter(nil, passOpts{seconds: seconds / 8}); err != nil {
			return err
		}
		if on, err = quarter(nil, passOpts{seconds: seconds / 8, hooks: true}); err != nil {
			return err
		}
		v["runtime.hooks.all_on_tax_pct"] = (ratio(off.opsPerS(), on.opsPerS()) - 1) * 100
	}
	return err
}

// itemiseEventCost prints, for a classic-engine workload, where the host
// time of one simulated event goes according to the probe rows, and
// leaves the unattributed remainder in v. Keys starting with "_" are
// working values, not reported rows.
func itemiseEventCost(out io.Writer, v map[string]float64) {
	perEvent := v["netsim.engine.ns_per_event"]
	epo := v["netsim.events_per_op"]
	if perEvent == 0 || epo == 0 {
		return
	}
	items := []struct {
		name string
		ns   float64
	}{
		{"event heap: netsim.engine.event_ns", v["netsim.engine.event_ns"]},
		{"parcel codec: (2 encode + 2 decode) / events per op", (2*v["parcel.encode_ns"] + 2*v["parcel.decode_ns"]) / epo},
		{"NIC table: lookups/op x lookup_ns + updates/op x update_evict_ns", (v["_tbl_lookups_per_op"]*v["netsim.transtable.lookup_ns"] +
			v["_tbl_updates_per_op"]*v["netsim.transtable.update_evict_ns"]) / epo},
		{"heap allocation: allocs/op x ns per 64 B allocation, GC included", v["driver.allocs_per_op"] * v["_malloc_ns"] / epo},
	}
	fmt.Fprintf(out, "\nwhere one simulated event's %.0f ns of host time go (probe rows / %.2f events per op):\n", perEvent, epo)
	rest := perEvent
	for _, it := range items {
		fmt.Fprintf(out, "  %-66s %8.1f ns\n", it.name, it.ns)
		rest -= it.ns
	}
	fmt.Fprintf(out, "  %-66s %8.1f ns\n", "unattributed: NIC receive/forward, handlers, closures, dispatch", rest)
	fmt.Fprintf(out, "  for scale, the DES put handler path: %.0f ns and %.0f allocations over %.1f events = %.0f ns per event\n",
		v["runtime.des.put_ns"], v["runtime.des.put_allocs"], v["_des_put_events"], ratio(v["runtime.des.put_ns"], v["_des_put_events"]))
	v["netsim.engine.unattributed_ns"] = rest
}

// printSpanTotals prints self time by span name.
func printSpanTotals(out io.Writer, spans []span, self []int64, path string) {
	fmt.Fprintf(out, "\nspans of the traced pass (%d, written to %s):\n", len(spans), path)
	fmt.Fprintf(out, "  %-16s %8s %12s %12s %12s\n", "span", "n", "total ms", "self ms", "median us")
	for _, t := range totalsByName(spans, self) {
		fmt.Fprintf(out, "  %-16s %8d %12.2f %12.2f %12.1f\n", t.Name, t.N, float64(t.TotalNs)/1e6, float64(t.SelfNs)/1e6, t.MedianDurNs/1e3)
	}
}

// printResult prints the metrics by name with units, any notes, and the
// result line last.
func printResult(out io.Writer, wl *workload, defs []metricDef, res result, notes []string) {
	fmt.Fprintf(out, "\n%s\n", wl.Name)
	for _, m := range defs {
		fmt.Fprintf(out, "  %-44s %16.4f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Fprintf(out, "  attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, n := range notes {
		fmt.Fprintf(out, "  ! %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(out, "%s\n", line)
}

// printSpec is -list.
func printSpec(out io.Writer) {
	fmt.Fprintln(out, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(out, "  %-12s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(out, "end-to-end metrics:")
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-20s %-6s %-6s may worsen by %.0f%%\n", m.Name, m.Unit, m.Better, m.Bound*100)
	}
	fmt.Fprintln(out, "per-layer metrics:")
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-44s %-6s %s\n", m.Name, m.Unit, m.Better)
	}
}

// runSmoke is -smoke: every workload, traced and untraced, at 1/500 of
// the calibrated warm-up and a twentieth of a second each.
func runSmoke(out io.Writer, seed int64) int {
	code := 0
	for i := range workloads {
		wl := &workloads[i]
		res, notes, err := measureEndToEnd(wl, seed, 0.05, 1.0/500)
		if err == nil {
			printResult(out, wl, endToEnd, res, notes)
			if !res.Correct {
				code = 1
			}
			res, notes, err = measurePerLayer(io.Discard, wl, seed, 0.05, 1.0/500, filepath.Join("benchmark", "out", "smoke-"+wl.Name+".json"))
		}
		if err != nil {
			fmt.Fprintf(out, "%s: %v\n", wl.Name, err)
			return 1
		}
		if !res.Correct {
			printResult(out, wl, perLayer, res, notes)
			code = 1
		}
	}
	return code
}
