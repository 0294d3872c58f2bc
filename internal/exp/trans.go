package exp

import (
	"math/rand"

	"nmvgas/internal/agas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/runtime"
	"nmvgas/internal/stats"
	"nmvgas/internal/workloads"
)

func init() {
	register("F3", "Fig. 3: NIC translation-table capacity cliff", f3Translation)
	register("F4", "Fig. 4: migration cost vs block size", f4Migration)
	register("F9", "Fig. 9: update throughput vs migration churn", f9Churn)
	register("A1", "Ablation 1: in-network forwarding vs NACK", a1Forwarding)
	register("A2", "Ablation 2: NIC table update policy", a2UpdatePolicy)
}

// f3Translation sweeps the migrated working-set size against a fixed NIC
// table capacity: once the working set exceeds the table, every access
// misses at the source and pays the home bounce (the capacity cliff that
// motivates managing NIC translation state carefully). The unbounded
// software cache never cliffs but pays its per-op software probe.
func f3Translation(o Options) *stats.Table {
	tb := stats.NewTable("Fig. 3: translation behaviour vs working set (NIC table cap = 32)",
		"working_set_blocks", "nm_hit_rate", "nm_avg_us", "sw_hit_rate", "sw_avg_us")
	const tableCap = 32
	sweeps := []uint32{8, 16, 32, 64, 128}
	if o.Quick {
		sweeps = []uint32{8, 32, 64}
	}
	rounds := 3
	for _, ws := range sweeps {
		// Network-managed with a bounded NIC table.
		nmHit, nmUs := translationProbe(o, runtime.SpaceFor(runtime.AGASNM), tableCap, ws, rounds)
		// Software-managed with an unbounded cache.
		swHit, swUs := translationProbe(o, runtime.SpaceFor(runtime.AGASSW), 0, ws, rounds)
		tb.AddRow(ws, nmHit, nmUs, swHit, swUs)
	}
	return tb
}

// translationProbe migrates ws blocks away from their home and then
// round-robins accesses over them from a third rank, returning the
// steady-state source hit rate and mean access latency.
func translationProbe(o Options, sp runtime.SpaceSpec, tableCap int, ws uint32, rounds int) (hitRate, avgUs float64) {
	w := newWorld(sp, 3, func(c *runtime.Config) { c.NICTableCap = tableCap })
	echo := w.Register("echo", func(c *runtime.Ctx) { c.Continue(nil) })
	w.Start()
	defer w.Stop()
	lay, err := w.AllocLocal(1, 256, ws)
	if err != nil {
		panic(err)
	}
	for d := uint32(0); d < ws; d++ {
		w.MustWait(w.Proc(1).Migrate(lay.BlockAt(d), 2))
	}
	// One cold pass to populate, then measured passes; the hit rate is
	// computed over the measured passes only (steady state).
	for d := uint32(0); d < ws; d++ {
		w.MustWait(w.Proc(0).Call(lay.BlockAt(d), echo, nil))
	}
	var h0, m0 uint64
	if sp.Caps.NICTranslation {
		h0, m0, _, _ = w.Fabric().NIC(0).Table.Stats()
	} else {
		h0, m0, _, _, _ = w.Locality(0).Cache().Stats()
	}
	var samples []netsim.VTime
	for r := 0; r < rounds; r++ {
		for d := uint32(0); d < ws; d++ {
			samples = append(samples, timeOp(w, func() *runtime.LCORef {
				return w.Proc(0).Call(lay.BlockAt(d), echo, nil)
			}))
		}
	}
	var h1, m1 uint64
	if sp.Caps.NICTranslation {
		h1, m1, _, _ = w.Fabric().NIC(0).Table.Stats()
	} else {
		h1, m1, _, _, _ = w.Locality(0).Cache().Stats()
	}
	if dh, dm := h1-h0, m1-m0; dh+dm > 0 {
		hitRate = float64(dh) / float64(dh+dm)
	}
	return hitRate, meanMicros(samples)
}

// f4Migration measures the end-to-end cost of migrating one block as its
// size grows, per mode, plus the latency penalty suffered by an operation
// issued mid-migration.
func f4Migration(o Options) *stats.Table {
	tb := stats.NewTable("Fig. 4: block migration cost vs size",
		"bsize_B", "sw_migrate_us", "nm_migrate_us", "sw_midflight_put_us", "nm_midflight_put_us")
	sizes := []uint32{256, 4096, 65536, 512 * 1024}
	if o.Quick {
		sizes = []uint32{256, 65536}
	}
	var migrating []runtime.SpaceSpec
	for _, sp := range spaces {
		if sp.Caps.Migration {
			migrating = append(migrating, sp)
		}
	}
	for _, bsize := range sizes {
		mig := make([]float64, len(migrating))
		mid := make([]float64, len(migrating))
		for mi, sp := range migrating {
			w := newWorld(sp, 4)
			w.Start()
			lay, err := w.AllocLocal(1, bsize, 2)
			if err != nil {
				panic(err)
			}
			mig[mi] = timeOp(w, func() *runtime.LCORef {
				return w.Proc(0).Migrate(lay.BlockAt(0), 2)
			}).Micros()
			// Mid-flight: start a migration of the second block, run
			// until the owner has pinned it, then put against it from
			// another rank — the put queues behind the move.
			b1 := lay.BlockAt(1)
			m := w.Proc(0).Migrate(b1, 3)
			w.Engine().RunUntil(func() bool {
				return w.Locality(1).Moving(b1.Block())
			})
			mid[mi] = timeOp(w, func() *runtime.LCORef {
				return w.Proc(2).Put(b1, make([]byte, 8))
			}).Micros()
			w.MustWait(m)
			w.Stop()
		}
		tb.AddRow(bsize, mig[0], mig[1], mid[0], mid[1])
	}
	return tb
}

// f9Churn runs a random-update stream while a background process migrates
// blocks at increasing rates. Software-managed AGAS pays stale-cache
// repair on the data path; network-managed AGAS absorbs churn in NIC
// state.
func f9Churn(o Options) *stats.Table {
	tb := stats.NewTable("Fig. 9: update throughput (Kops/s) vs migration churn",
		"migrations", "sw_update_Kops", "sw_invalidate_Kops", "nm_Kops")
	churns := []int{0, 8, 32, 128}
	if o.Quick {
		churns = []int{0, 16}
	}
	updates := 400
	if o.Quick {
		updates = 100
	}
	for _, nmig := range churns {
		sw := churnRun(o, runtime.SpaceFor(runtime.AGASSW), agas.CorrectionUpdate, nmig, updates)
		swInv := churnRun(o, runtime.SpaceFor(runtime.AGASSW), agas.CorrectionInvalidate, nmig, updates)
		nm := churnRun(o, runtime.SpaceFor(runtime.AGASNM), agas.CorrectionUpdate, nmig, updates)
		tb.AddRow(nmig, sw, swInv, nm)
	}
	return tb
}

// churnRun interleaves nmig migrations with the GUPS stream and returns
// Kops/s of simulated update throughput.
func churnRun(o Options, sp runtime.SpaceSpec, corr agas.CorrectionPolicy, nmig, perRank int) float64 {
	const ranks = 4
	w := newWorld(sp, ranks, func(c *runtime.Config) { c.SWCorrection = corr })
	g := workloads.NewGUPS(w, "gups")
	w.Start()
	defer w.Stop()
	const nblocks = 32
	if err := g.Setup(512, nblocks, workloads.KeysUniform, o.Seed); err != nil {
		panic(err)
	}
	lay := g.Layout()
	// Background churn: migrations issued up front; they interleave with
	// the update stream in simulated time.
	rng := rand.New(rand.NewSource(o.Seed + 1))
	var migs []*runtime.LCORef
	for i := 0; i < nmig; i++ {
		d := uint32(rng.Intn(nblocks))
		migs = append(migs, w.Proc(rng.Intn(ranks)).Migrate(lay.BlockAt(d), rng.Intn(ranks)))
	}
	start := w.Now()
	n, err := g.Run(perRank, 8)
	if err != nil {
		panic(err)
	}
	for _, m := range migs {
		w.MustWait(m)
	}
	elapsed := w.Now() - start
	return float64(n) / (float64(elapsed) / 1e9) / 1e3
}

// a1Forwarding compares the paper's in-network forwarding against
// NACK-and-resend for the first post-migration access.
func a1Forwarding(o Options) *stats.Table {
	tb := stats.NewTable("Ablation 1: stale-access repair (first access after migration)",
		"policy", "first_access_us", "steady_us", "nic_nacks")
	for _, pol := range []struct {
		name string
		p    netsim.Policy
	}{
		{"forward+push", netsim.Policy{}},
		{"forward-only", netsim.Policy{NoPushUpdates: true}},
		{"nack", netsim.Policy{NackToHost: true, NoPushUpdates: true}},
	} {
		w := newWorld(runtime.SpaceFor(runtime.AGASNM), 4, func(c *runtime.Config) {
			c.Policy = pol.p
		})
		echo := w.Register("echo", func(c *runtime.Ctx) { c.Continue(nil) })
		w.Start()
		lay, err := w.AllocLocal(1, 256, 1)
		if err != nil {
			panic(err)
		}
		g := lay.BlockAt(0)
		w.MustWait(w.Proc(1).Migrate(g, 2))
		first := timeOp(w, func() *runtime.LCORef { return w.Proc(0).Call(g, echo, nil) })
		steady := timeOp(w, func() *runtime.LCORef { return w.Proc(0).Call(g, echo, nil) })
		tb.AddRow(pol.name, first.Micros(), steady.Micros(), w.RankStats(0).Loc.NICNacks)
		w.Stop()
	}
	return tb
}

// a2UpdatePolicy compares lazy (on-forward) against eager (broadcast)
// NIC-table update propagation: first-access latency from a third party
// vs control-message volume.
func a2UpdatePolicy(o Options) *stats.Table {
	tb := stats.NewTable("Ablation 2: NIC table update propagation",
		"policy", "first_access_us", "ctrl_msgs")
	for _, pol := range []struct {
		name      string
		broadcast bool
	}{
		{"on-forward", false},
		{"broadcast", true},
	} {
		w := newWorld(runtime.SpaceFor(runtime.AGASNM), 8, func(c *runtime.Config) { c.Policy.BroadcastUpdates = pol.broadcast })
		echo := w.Register("echo", func(c *runtime.Ctx) { c.Continue(nil) })
		w.Start()
		lay, err := w.AllocLocal(1, 256, 1)
		if err != nil {
			panic(err)
		}
		g := lay.BlockAt(0)
		before := w.Stats().NICTableUpds
		w.MustWait(w.Proc(1).Migrate(g, 2))
		w.Drain() // let eager broadcasts land before measuring
		first := timeOp(w, func() *runtime.LCORef { return w.Proc(5).Call(g, echo, nil) })
		ctrl := w.Stats().NICTableUpds - before
		tb.AddRow(pol.name, first.Micros(), ctrl)
		w.Stop()
	}
	return tb
}
