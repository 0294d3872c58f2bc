// Command vgasbench regenerates the paper's tables and figures.
//
// Usage:
//
//	vgasbench -list                 # show the experiment registry
//	vgasbench                       # run everything (full scale)
//	vgasbench -quick T1 F5          # run selected experiments, small sweeps
//	vgasbench -csv F1               # emit CSV instead of aligned tables
//	vgasbench -modes agas-nm F6     # restrict row-per-mode sweeps
//	vgasbench -loss 0.05 -dup 0.02 -reorder C1   # extra chaos fault plan
//	vgasbench -kill 1:50000 -join 1:60000000 C2  # schedule a whole-node crash + rejoin
//	NMVGAS_FAULTS="kill=1:50000,restart=1:60000000" vgasbench C2  # same, via env (CI hook)
//	vgasbench -replicas 3 -coherence write-update F16   # replication sweep override
//	vgasbench -localities 1024 -shards 1,8 F17   # scaling sweep override
//	vgasbench -topology dragonfly:group=32 F17   # fabric override for the sweep
//	vgasbench -tenants 16 -shift 2 F19           # rebalancing sweep overrides
//	vgasbench -rebalance 8 F19                   # cap the policy's per-epoch move budget
//	vgasbench -cpuprofile cpu.out -quick F5      # pprof the run
//	vgasbench -metrics-out m.prom -trace-out t.json  # instrumented run: metrics + Chrome trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"nmvgas/internal/agas"
	"nmvgas/internal/exp"
	"nmvgas/internal/metrics"
	"nmvgas/internal/netsim"
	"nmvgas/internal/runtime"
	"nmvgas/internal/trace"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	quick := flag.Bool("quick", false, "run reduced sweeps")
	csv := flag.Bool("csv", false, "emit CSV")
	seed := flag.Int64("seed", 42, "workload seed")
	modes := flag.String("modes", "", "comma-separated address-space modes to sweep "+
		"(pgas, agas-sw, agas-nm; empty = all). Experiments with fixed per-mode "+
		"columns always sweep every mode.")
	replicas := flag.Int("replicas", 0, "replica count for the replication experiment's sweep "+
		"(0 = default sweep; n > 0 runs {0, n})")
	coherence := flag.String("coherence", "", "replica coherence policy for the replication "+
		"experiment (write-invalidate, write-update, rw-lease; empty = write-invalidate)")
	loss := flag.Float64("loss", 0, "message drop probability [0,1) for the chaos experiment's extra plan")
	dup := flag.Float64("dup", 0, "message duplication probability [0,1) for the chaos experiment's extra plan")
	reorder := flag.Bool("reorder", false, "randomize per-message delay (reordering) in the chaos experiment's extra plan")
	kill := flag.String("kill", "", "schedule whole-locality crashes in the fault plan: comma-separated "+
		"rank:vtime pairs in simulated ns (e.g. -kill 1:50000)")
	join := flag.String("join", "", "schedule crashed localities' links back up (the runtime re-admits them "+
		"via Join once the death is confirmed): comma-separated rank:vtime pairs (e.g. -join 1:60000000)")
	localities := flag.String("localities", "", "comma-separated world sizes for the scaling "+
		"experiment's sweep (e.g. -localities 256,1024; empty = default sweep)")
	shards := flag.String("shards", "", "comma-separated event-shard counts for the scaling "+
		"experiment's sweep (0 = classic single-heap engine; empty = default sweep)")
	topology := flag.String("topology", "", "fabric spec for the scaling experiment "+
		"(crossbar, two-tier, fat-tree, dragonfly, with optional :key=value params; "+
		"empty = balanced fat-tree)")
	tenants := flag.Int("tenants", 0, "blocks per tenant for the rebalancing experiment "+
		"(0 = default 8)")
	shift := flag.Int("shift", 0, "hotspot shifts the rebalancing experiment applies, each "+
		"followed by a convergence window (0 = default 1)")
	rebalance := flag.Int("rebalance", 0, "per-epoch migration budget for the rebalancing "+
		"policy (0 = default 16)")
	flightOut := flag.String("flight-out", "", "write the F20 health experiment's flight-recorder "+
		"trip bundle (indented JSON) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsOut := flag.String("metrics-out", "", "run an instrumented migration workload and write a metrics snapshot to this file (.json = JSON snapshot, otherwise Prometheus text), then exit")
	traceOut := flag.String("trace-out", "", "with or without -metrics-out: write the instrumented run's Chrome trace-event JSON to this file, then exit")
	flag.Parse()

	if *list {
		for _, e := range exp.Registry {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("vgasbench: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("vgasbench: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatalf("vgasbench: %v", err)
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("vgasbench: %v", err)
			}
		}()
	}

	if *metricsOut != "" || *traceOut != "" {
		if err := observedRun(*seed, *metricsOut, *traceOut); err != nil {
			fatalf("vgasbench: %v", err)
		}
		return
	}

	o := exp.Options{Quick: *quick, Seed: *seed, Replicas: *replicas,
		Localities:   parseIntList("localities", *localities),
		ShardSweep:   parseIntList("shards", *shards),
		Topology:     *topology,
		TenantBlocks: *tenants, Shifts: *shift, MoveBudget: *rebalance,
		FlightOut: *flightOut}

	if *coherence != "" {
		c, err := agas.ParseCoherence(*coherence)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vgasbench: %v\n", err)
			os.Exit(2)
		}
		o.Coherence = c
	}
	// The fault plan layers: NMVGAS_FAULTS (full spec string, the CI
	// chaos job's override hook) is the base, then the individual flags
	// override or extend it.
	if env := os.Getenv("NMVGAS_FAULTS"); env != "" {
		p, err := netsim.ParseFaultPlan(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vgasbench: NMVGAS_FAULTS: %v\n", err)
			os.Exit(2)
		}
		o.Faults = p
	}
	if *loss != 0 || *dup != 0 || *reorder {
		o.Faults.Drop, o.Faults.Duplicate, o.Faults.Reorder = *loss, *dup, *reorder
	}
	if *kill != "" {
		o.Faults.KillAt = mergeSchedule(o.Faults.KillAt, parseSchedule("kill", *kill))
	}
	if *join != "" {
		o.Faults.RestartAt = mergeSchedule(o.Faults.RestartAt, parseSchedule("restart", *join))
	}
	if o.Faults.Enabled() && o.Faults.Seed == 0 {
		o.Faults.Seed = *seed
	}
	if err := o.Faults.Validate(0); err != nil {
		fmt.Fprintf(os.Stderr, "vgasbench: %v\n", err)
		os.Exit(2)
	}
	if *modes != "" {
		for _, name := range strings.Split(*modes, ",") {
			m, err := runtime.ParseMode(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "vgasbench: %v\n", err)
				os.Exit(2)
			}
			o.Spaces = append(o.Spaces, runtime.SpaceFor(m))
		}
	}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = exp.IDs()
	}
	for _, id := range ids {
		e, ok := exp.Find(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "vgasbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		tb := e.Run(o)
		if *csv {
			fmt.Printf("# %s\n%s\n", tb.Title, tb.CSV())
			continue
		}
		if err := tb.Fprint(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "vgasbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// parseIntList parses a comma-separated list of non-negative ints from
// a flag value ("" = nil).
func parseIntList(name, spec string) []int {
	if spec == "" {
		return nil
	}
	var out []int
	for _, t := range strings.Split(spec, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(t), "%d", &n); err != nil || n < 0 {
			fatalf("vgasbench: bad -%s entry %q: want a non-negative integer", name, t)
		}
		out = append(out, n)
	}
	return out
}

// parseSchedule turns a "rank:vtime,rank:vtime" flag value into a fault
// schedule by feeding each pair through the canonical fault-plan parser
// under the given key ("kill" or "restart").
func parseSchedule(key, spec string) map[int]netsim.VTime {
	terms := make([]string, 0, 4)
	for _, t := range strings.Split(spec, ",") {
		terms = append(terms, key+"="+strings.TrimSpace(t))
	}
	p, err := netsim.ParseFaultPlan(strings.Join(terms, ","))
	if err != nil {
		fatalf("vgasbench: bad %s schedule %q: %v", key, spec, err)
	}
	if key == "kill" {
		return p.KillAt
	}
	return p.RestartAt
}

// mergeSchedule overlays add onto base (flag entries win over the
// NMVGAS_FAULTS base plan).
func mergeSchedule(base, add map[int]netsim.VTime) map[int]netsim.VTime {
	if base == nil {
		return add
	}
	for r, t := range add {
		base[r] = t
	}
	return base
}

// observedRun drives a migration-under-load workload on the DES engine
// with Config.Metrics on and a trace ring attached, then writes the
// registry snapshot (Prometheus text, or JSON for .json paths) and the
// Chrome trace-event export to the requested files.
func observedRun(seed int64, metricsOut, traceOut string) error {
	w, err := runtime.NewWorld(runtime.Config{
		Ranks: 4, Mode: runtime.AGASNM, Engine: runtime.EngineDES, Metrics: true,
		Pulse: runtime.PulseConfig{Enabled: true},
	})
	if err != nil {
		return err
	}
	defer w.Stop()
	flight := trace.NewFlight(w, trace.FlightConfig{Capacity: 1 << 15})
	flight.Arm()
	ring := flight.Ring()
	bump := w.Register("bump", func(c *runtime.Ctx) { c.Continue(nil) })
	w.Start()

	const nblocks = 16
	lay, err := w.AllocCyclic(0, 512, nblocks)
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	pub := metrics.PublishWorld(reg, w)
	health := metrics.PublishHealth(reg, w)
	sampler := metrics.NewSampler(w)
	sampler.RunDES(50*netsim.Microsecond, 8)

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 8; i++ {
		w.MustWait(w.Proc(0).Migrate(lay.BlockAt(uint32(rng.Intn(nblocks))), 1+rng.Intn(3)))
	}
	buf := make([]byte, 64)
	for i := 0; i < 200; i++ {
		g := lay.BlockAt(uint32(rng.Intn(nblocks)))
		switch i % 4 {
		case 0:
			w.MustWait(w.Proc(0).Put(g, buf))
		case 1:
			w.MustWait(w.Proc(0).Get(g, 64))
		default:
			w.MustWait(w.Proc(0).Call(g, bump, nil))
		}
	}
	pub.Refresh()
	health.Refresh()
	sampler.Publish(reg)

	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		if filepath.Ext(metricsOut) == ".json" {
			err = reg.WriteJSON(f)
		} else {
			err = reg.WritePrometheus(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		// Validate what actually landed on disk, so the CI smoke job can
		// rely on the exit code alone.
		raw, err := os.ReadFile(metricsOut)
		if err != nil {
			return err
		}
		if filepath.Ext(metricsOut) == ".json" {
			if !json.Valid(raw) {
				return fmt.Errorf("%s: snapshot is not valid JSON", metricsOut)
			}
		} else if err := metrics.ValidatePrometheus(strings.NewReader(string(raw))); err != nil {
			return fmt.Errorf("%s: %v", metricsOut, err)
		}
		fmt.Printf("wrote metrics snapshot to %s (validated)\n", metricsOut)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		err = ring.DumpChrome(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		raw, err := os.ReadFile(traceOut)
		if err != nil {
			return err
		}
		if !json.Valid(raw) {
			return fmt.Errorf("%s: trace export is not valid JSON", traceOut)
		}
		fmt.Printf("wrote Chrome trace (%d events) to %s — load it in Perfetto (validated)\n",
			ring.Total(), traceOut)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
