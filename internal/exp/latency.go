package exp

import (
	"math/rand"

	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
	"nmvgas/internal/stats"
)

func init() {
	register("F15", "Fig. 15: latency breakdown (ns percentiles) under migration churn", f15Latency)
}

// f15Latency runs the same update stream under background migration in
// every mode with Config.Metrics on and reports the runtime's latency
// histograms: parcel send→exec and put/get completion percentiles, plus
// the migration total. PGAS never migrates, so its tail is the clean
// baseline; software AGAS pays host-side forwarding and cache repair in
// its p99; network-managed AGAS repairs in the NIC and should track the
// PGAS tail (agas-nm p99 ≈ pgas p99 ≪ agas-sw p99).
func f15Latency(o Options) *stats.Table {
	tb := stats.NewTable("Fig. 15: latency breakdown under migration churn (ns)",
		"mode", "ops", "exec_p50", "exec_p95", "exec_p99",
		"put_p99", "get_p99", "mig_total_p50")
	ops, nmig := 600, 128
	if o.Quick {
		ops, nmig = 150, 32
	}
	for _, sp := range o.sweep() {
		lat := latencyChurnRun(o, sp, ops, nmig)
		pe := lat.Path[runtime.LatParcelExec]
		tb.AddRow(sp.Caps.Name, pe.Count, pe.P50Ns, pe.P95Ns, pe.P99Ns,
			lat.Path[runtime.LatPutDone].P99Ns, lat.Path[runtime.LatGetDone].P99Ns,
			lat.Path[runtime.LatMigTotal].P50Ns)
	}
	return tb
}

// latencyChurnRun drives `ops` remote handler invocations plus a put/get
// mix from rank 0 over blocks spread across the other ranks, with nmig
// background migrations interleaved when the mode supports them, and
// returns the world's latency histograms.
func latencyChurnRun(o Options, sp runtime.SpaceSpec, ops, nmig int) runtime.WorldLatencies {
	const ranks = 4
	const nblocks = 64
	w := newWorld(sp, ranks, func(c *runtime.Config) { c.Metrics = true })
	bump := w.Register("bump", func(c *runtime.Ctx) {
		c.Continue(parcel.PutU64(nil, 1))
	})
	w.Start()
	defer w.Stop()
	lay, err := w.AllocCyclic(0, 512, nblocks)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(o.Seed))
	// Scatter blocks first, so the measured stream below runs against
	// stale translations: software AGAS repairs them with host forwards
	// on the data path, the NIC-managed space absorbs them in-network,
	// and PGAS (no migration) is the clean baseline.
	if sp.Caps.Migration {
		for i := 0; i < nmig; i++ {
			d := uint32(rng.Intn(nblocks))
			w.MustWait(w.Proc(rng.Intn(ranks)).Migrate(lay.BlockAt(d), rng.Intn(ranks)))
		}
	}
	buf := make([]byte, 64)
	for i := 0; i < ops; i++ {
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
	return w.Stats().Latencies
}
