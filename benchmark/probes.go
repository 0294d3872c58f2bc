package main

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nmvgas/internal/agas"
	"nmvgas/internal/gas"
	"nmvgas/internal/lco"
	"nmvgas/internal/microbench"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
	"nmvgas/internal/trace"
	"nmvgas/vgas"
)

// Isolated probes (P rows) and the small differentials that do not need a
// workload (D rows on the pump and on the DES put). Each probe times calls
// into one layer's exported functions for a fixed iteration count, so a
// probe costs tens of milliseconds and its allocation counts repeat.

// probe fills one or more per-layer rows.
type probe struct {
	rows []string
	run  func(out map[string]float64, n iters)
}

// iters scales a probe's calibrated iteration count: the identity in a
// real run, a small fraction (never below 1) in the smoke run.
type iters func(calibrated int) int

func scaleIters(scale float64) iters {
	return func(c int) int {
		if k := int(float64(c) * scale); k > 1 {
			return k
		}
		return 2
	}
}

// sink keeps the compiler from discarding probe bodies.
var sink uint64

// timeLoop runs f n times and returns ns per call and heap allocations
// per call.
func timeLoop(n int, f func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// bench runs a testing.B body (the internal/microbench ones) for exactly
// n iterations.
func bench(n int, body func(*testing.B)) testing.BenchmarkResult {
	testing.Init()
	if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", n)); err != nil {
		panic(err)
	}
	return testing.Benchmark(body)
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// pumpWorld is the 2-rank goroutine-engine world the pump and hook-tax
// probes share: rank 0 fires no-continuation parcels at a block on
// rank 1. It returns ns per parcel.
func pump(n int, cfg vgas.Config, attach func(*vgas.World)) float64 {
	cfg.Ranks, cfg.Mode, cfg.Engine = 2, vgas.AGASNM, vgas.EngineGo
	w, err := vgas.NewWorld(cfg)
	if err != nil {
		panic(err)
	}
	defer w.Stop()
	if attach != nil {
		attach(w)
	}
	var ran atomic.Int64
	done := make(chan struct{})
	count := w.Register("count", func(*vgas.Ctx) {
		if ran.Add(1) == int64(n) {
			close(done)
		}
	})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		panic(err)
	}
	g, p := lay.BlockAt(0), w.Proc(0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p.Invoke(g, count, nil)
	}
	<-done
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// hookTaxes measures each optional hook family's cost on the pump. The
// pump's throughput wanders by tens of percent between runs on a small
// host, so the configurations run round-robin five times and each tax is
// a ratio of medians.
func hookTaxes(out map[string]float64, n iters) {
	var seen atomic.Uint64
	configs := []struct {
		row    string
		cfg    vgas.Config
		attach func(*vgas.World)
	}{
		{"", vgas.Config{}, nil},
		{"runtime.hooks.metrics_tax_pct", vgas.Config{Metrics: true}, nil},
		{"runtime.hooks.heat_tax_pct", vgas.Config{Heat: vgas.HeatConfig{Enabled: true, SampleShift: 4}}, nil},
		{"runtime.hooks.pulse_tax_pct", vgas.Config{Pulse: vgas.PulseConfig{Enabled: true}}, nil},
		{"runtime.hooks.tracer_tax_pct", vgas.Config{}, func(w *vgas.World) {
			w.SetTracer(func(vgas.TraceEvent) { seen.Add(1) })
		}},
		{"runtime.hooks.flight_tax_pct", vgas.Config{}, func(w *vgas.World) {
			trace.NewFlight(w, trace.FlightConfig{})
		}},
	}
	ns := make([][]float64, len(configs))
	for rep := 0; rep < 5; rep++ {
		for i, c := range configs {
			ns[i] = append(ns[i], pump(n(50_000), c.cfg, c.attach))
		}
	}
	for i, c := range configs[1:] {
		out[c.row] = (median(ns[i+1])/median(ns[0]) - 1) * 100
	}
}

// oneSidedWorld is a 2-rank world with one 4 KiB block on rank `at`,
// driven from rank 0.
func oneSidedWorld(eng vgas.EngineKind, at int, rel vgas.ReliabilityConfig) (*vgas.World, vgas.GVA) {
	w, err := vgas.NewWorld(vgas.Config{Ranks: 2, Mode: vgas.AGASNM, Engine: eng, Reliability: rel})
	if err != nil {
		panic(err)
	}
	w.Start()
	lay, err := w.AllocLocal(at, 4096, 1)
	if err != nil {
		w.Stop()
		panic(err)
	}
	return w, lay.BlockAt(0)
}

func putWaitNs(n int, eng vgas.EngineKind, rel vgas.ReliabilityConfig) float64 {
	w, g := oneSidedWorld(eng, 1, rel)
	defer w.Stop()
	buf := make([]byte, 64)
	p := w.Proc(0)
	ns, _ := timeLoop(n, func(int) { p.PutWait(g, buf) })
	return ns
}

func startMs(ranks int, topo string) float64 {
	t0 := time.Now()
	cfg := vgas.Config{Ranks: ranks, Mode: vgas.AGASNM, Engine: vgas.EngineDES}
	if topo != "" {
		tp, err := vgas.ParseTopology(topo, ranks)
		if err != nil {
			panic(err)
		}
		cfg.Topology = tp
	}
	w, err := vgas.NewWorld(cfg)
	if err != nil {
		panic(err)
	}
	w.Start()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	w.Stop()
	return ms
}

var probes = []probe{
	{[]string{"gas.gva_codec_ns"}, func(out map[string]float64, n iters) {
		ns, _ := timeLoop(n(2_000_000), func(i int) {
			g := gas.New(i&gas.MaxHome, gas.BlockID(i), uint32(i)&(gas.MaxBlockSize-1))
			sink += uint64(g.Home()) + uint64(g.Block()) + uint64(g.Offset())
		})
		out["gas.gva_codec_ns"] = ns
	}},
	{[]string{"gas.store_rw_ns"}, func(out map[string]float64, n iters) {
		st := gas.NewStore()
		for b := gas.BlockID(1); b <= 64; b++ {
			if _, err := st.Create(b, 4096); err != nil {
				panic(err)
			}
		}
		buf := make([]byte, 64)
		ns, _ := timeLoop(n(500_000), func(i int) {
			b := gas.BlockID(i&63) + 1
			off := uint32(i&31) * 64
			if i&1 == 0 {
				_ = st.WriteAt(b, off, buf)
			} else {
				_ = st.ReadAt(b, off, buf)
			}
		})
		out["gas.store_rw_ns"] = ns
	}},
	{[]string{"parcel.encode_ns", "parcel.decode_ns", "parcel.decode_allocs"}, func(out map[string]float64, n iters) {
		p := &parcel.Parcel{Action: 9, Target: gas.New(1, 7, 64), Payload: make([]byte, 64), CAction: 3, CTarget: gas.New(0, 2, 0), Src: 1, Seq: 5, OpID: 77}
		out["parcel.encode_ns"], _ = timeLoop(n(500_000), func(int) { sink += uint64(len(parcel.Encode(p))) })
		enc := parcel.Encode(p)
		out["parcel.decode_ns"], out["parcel.decode_allocs"] = timeLoop(n(500_000), func(int) {
			q, err := parcel.Decode(enc)
			if err != nil {
				panic(err)
			}
			sink += q.Seq
		})
	}},
	{[]string{"netsim.engine.event_ns"}, func(out map[string]float64, n iters) {
		out["netsim.engine.event_ns"] = nsPerOp(bench(n(1_000_000), microbench.DESEngineEvents))
	}},
	{[]string{"netsim.engine.event_deep_ns"}, func(out map[string]float64, n iters) {
		// The same schedule-and-dispatch chain with 64K other events
		// pending, so every push and pop pays the full heap height.
		eng := netsim.NewEngine()
		for i := 0; i < 1<<16; i++ {
			eng.At(netsim.VTime(1<<40+i), func() {})
		}
		steps, k := n(500_000), 0
		var step func()
		step = func() {
			if k++; k < steps {
				eng.After(1, step)
			}
		}
		eng.After(1, step)
		t0 := time.Now()
		eng.RunUntil(func() bool { return k >= steps })
		out["netsim.engine.event_deep_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(steps)
	}},
	{[]string{"netsim.transtable.lookup_ns", "netsim.transtable.update_evict_ns"}, func(out map[string]float64, n iters) {
		t := netsim.NewTransTable(32)
		for b := 0; b < 32; b++ {
			t.Update(gas.BlockID(b), b&15)
		}
		out["netsim.transtable.lookup_ns"], _ = timeLoop(n(1_000_000), func(i int) {
			o, _ := t.Lookup(gas.BlockID(i & 31))
			sink += uint64(o)
		})
		// 256 blocks through 32 entries: every update of a new block
		// evicts, as on des_churn.
		out["netsim.transtable.update_evict_ns"], _ = timeLoop(n(500_000), func(i int) {
			t.Update(gas.BlockID(i&255), i&15)
		})
	}},
	{[]string{"netsim.batch.scatter_record_ns"}, func(out map[string]float64, n iters) {
		enc := parcel.Encode(&parcel.Parcel{Action: 9, Target: gas.New(1, 7, 0), Payload: make([]byte, 16)})
		var batch []byte
		for i := 0; i < 16; i++ {
			batch = netsim.AppendScatterRecord(batch, enc)
		}
		ns, _ := timeLoop(n(100_000), func(int) {
			r := netsim.NewScatterReader(batch)
			for {
				g, _, ok := r.Next()
				if !ok {
					break
				}
				sink += uint64(g)
			}
		})
		out["netsim.batch.scatter_record_ns"] = ns / 16
	}},
	{[]string{"runtime.go.pump_ns", "runtime.go.pump_allocs"}, func(out map[string]float64, n iters) {
		r := bench(n(50_000), microbench.GoEnginePump)
		out["runtime.go.pump_ns"], out["runtime.go.pump_allocs"] = nsPerOp(r), float64(r.AllocsPerOp())
	}},
	{[]string{"runtime.go.put_ns"}, func(out map[string]float64, n iters) {
		out["runtime.go.put_ns"] = nsPerOp(bench(n(50_000), microbench.GoEnginePut))
	}},
	{[]string{"runtime.go.putwait_ns"}, func(out map[string]float64, n iters) {
		out["runtime.go.putwait_ns"] = putWaitNs(n(20_000), vgas.EngineGo, vgas.ReliabilityConfig{})
	}},
	{[]string{"runtime.go.get_ns", "runtime.go.get_allocs", "runtime.go.local_get_ns", "runtime.go.transport_ns"}, func(out map[string]float64, n iters) {
		r := bench(n(20_000), microbench.GoEngineGet)
		out["runtime.go.get_ns"], out["runtime.go.get_allocs"] = nsPerOp(r), float64(r.AllocsPerOp())
		// The same blocking get against a block on the caller's own rank:
		// everything but the mailbox and chanNet round trip.
		w, g := oneSidedWorld(vgas.EngineGo, 0, vgas.ReliabilityConfig{})
		defer w.Stop()
		buf := make([]byte, 64)
		p := w.Proc(0)
		out["runtime.go.local_get_ns"], _ = timeLoop(n(20_000), func(int) { p.GetWaitInto(g, buf) })
		out["runtime.go.transport_ns"] = out["runtime.go.get_ns"] - out["runtime.go.local_get_ns"]
	}},
	{[]string{"runtime.go.putvec_ns"}, func(out map[string]float64, n iters) {
		out["runtime.go.putvec_ns"] = nsPerOp(bench(n(10_000), microbench.GoEnginePutVec))
	}},
	{[]string{"runtime.go.getvec_ns"}, func(out map[string]float64, n iters) {
		out["runtime.go.getvec_ns"] = nsPerOp(bench(n(10_000), microbench.GoEngineGetVec))
	}},
	{[]string{"runtime.des.put_ns", "runtime.des.put_allocs"}, func(out map[string]float64, n iters) {
		r := bench(n(10_000), microbench.DESEnginePut)
		out["runtime.des.put_ns"], out["runtime.des.put_allocs"] = nsPerOp(r), float64(r.AllocsPerOp())
		// Events per put, so the itemisation can state the put path's
		// cost per event.
		w, g := oneSidedWorld(vgas.EngineDES, 1, vgas.ReliabilityConfig{})
		defer w.Stop()
		buf := make([]byte, 64)
		e0, puts := w.Engine().Processed(), n(1000)
		for i := 0; i < puts; i++ {
			w.Proc(0).PutWait(g, buf)
		}
		out["_des_put_events"] = float64(w.Engine().Processed()-e0) / float64(puts)
		// The price of one small allocation with its share of GC, for the
		// itemisation's allocation row.
		ring := make([]*[64]byte, 1024)
		out["_malloc_ns"], _ = timeLoop(n(2_000_000), func(i int) { ring[i&1023] = new([64]byte) })
		sink += uint64(len(ring))
	}},
	{[]string{"runtime.coalesce.pump_ns", "runtime.coalesce.gain"}, func(out map[string]float64, n iters) {
		c := nsPerOp(bench(n(50_000), microbench.GoEngineCoalesce))
		out["runtime.coalesce.pump_ns"] = c
		out["runtime.coalesce.gain"] = ratio(nsPerOp(bench(n(50_000), microbench.GoEnginePump)), c)
	}},
	{[]string{"runtime.reliable.forced_tax_pct"}, func(out map[string]float64, n iters) {
		var off, on []float64
		for i := 0; i < 3; i++ {
			off = append(off, putWaitNs(n(5_000), vgas.EngineDES, vgas.ReliabilityConfig{}))
			on = append(on, putWaitNs(n(5_000), vgas.EngineDES, vgas.ReliabilityConfig{Force: true}))
		}
		out["runtime.reliable.forced_tax_pct"] = (median(on)/median(off) - 1) * 100
	}},
	{[]string{"runtime.replicate.local_read_ns"}, func(out map[string]float64, n iters) {
		out["runtime.replicate.local_read_ns"] = nsPerOp(bench(n(50_000), microbench.F16ReplicatedReads))
	}},
	{[]string{"runtime.hooks.metrics_tax_pct", "runtime.hooks.heat_tax_pct", "runtime.hooks.pulse_tax_pct",
		"runtime.hooks.tracer_tax_pct", "runtime.hooks.flight_tax_pct"}, hookTaxes},
	{[]string{"runtime.world.start_ms_4", "runtime.world.start_ms_1024", "runtime.world.stats_snapshot_us"}, func(out map[string]float64, n iters) {
		out["runtime.world.start_ms_4"] = median([]float64{startMs(4, ""), startMs(4, ""), startMs(4, "")})
		out["runtime.world.start_ms_1024"] = median([]float64{startMs(1024, "fat-tree"), startMs(1024, "fat-tree"), startMs(1024, "fat-tree")})
		w, err := vgas.NewWorld(vgas.Config{Ranks: 16, Mode: vgas.AGASNM, Engine: vgas.EngineDES})
		if err != nil {
			panic(err)
		}
		defer w.Stop()
		w.Start()
		ns, _ := timeLoop(n(2_000), func(int) { sink += uint64(w.Stats().ParcelsRun) })
		out["runtime.world.stats_snapshot_us"] = ns / 1e3
	}},
	{[]string{"agas.directory.resolve_ns", "agas.swcache.lookup_ns", "agas.tombstones.get_ns"}, func(out map[string]float64, n iters) {
		d := agas.NewDirectory()
		c := agas.NewSWCache(0, 0)
		ts := agas.NewTombstones()
		for b := 0; b < 256; b += 2 {
			d.Set(gas.BlockID(b), 3, 1)
			c.Learn(gas.BlockID(b), 3)
			ts.Put(gas.BlockID(b), 3)
		}
		out["agas.directory.resolve_ns"], _ = timeLoop(n(1_000_000), func(i int) { sink += uint64(d.Resolve(gas.BlockID(i&255), 1)) })
		out["agas.swcache.lookup_ns"], _ = timeLoop(n(1_000_000), func(i int) {
			o, _ := c.Lookup(gas.BlockID(i & 255))
			sink += uint64(o)
		})
		out["agas.tombstones.get_ns"], _ = timeLoop(n(1_000_000), func(i int) {
			o, _ := ts.Get(gas.BlockID(i & 255))
			sink += uint64(o)
		})
	}},
	{[]string{"lco.future_set_ns", "lco.andgate_set_ns"}, func(out map[string]float64, n iters) {
		out["lco.future_set_ns"], _ = timeLoop(n(500_000), func(int) {
			f := lco.NewFuture()
			f.OnFire(func([]byte) { sink++ })
			_ = f.Set(nil)
		})
		out["lco.andgate_set_ns"], _ = timeLoop(n(100_000), func(int) {
			g := lco.NewAndGate(8)
			g.OnFire(func([]byte) { sink++ })
			for k := 0; k < 8; k++ {
				_ = g.Set(nil)
			}
		})
		out["lco.andgate_set_ns"] /= 8
	}},
}

// runProbes runs every probe with a row whose name contains filter ("" =
// all) and returns the rows they filled.
func runProbes(filter string, n iters) map[string]float64 {
	out := map[string]float64{}
	for _, p := range probes {
		match := filter == ""
		for _, r := range p.rows {
			match = match || strings.Contains(r, filter)
		}
		if match {
			p.run(out, n)
			runtime.GC()
		}
	}
	return out
}

// printProbes is the -probe mode: one probe (or a family) alone.
func printProbes(w io.Writer, filter string) {
	out := runProbes(filter, scaleIters(1))
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}
	for _, n := range names {
		fmt.Fprintf(w, "%-44s %14.3f %s\n", n, out[n], units[n])
	}
}
