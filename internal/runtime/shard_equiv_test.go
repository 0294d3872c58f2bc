package runtime

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// The sharded-engine equivalence suite: the windowed parallel DES engine
// must be bit-for-bit indistinguishable across shard counts. shards=1 is
// the reference execution (one shard, same windowed scheduler, no
// parallelism), and every N > 1 must reproduce its golden counters,
// delivery report, and memory image exactly — the invariant ordering key
// makes the merge order independent of how ranks are partitioned.

func withShards(n int) func(*Config) {
	return func(c *Config) { c.Shards = n }
}

var shardCounts = []int{2, 4, 8}

// topoWorlds are the hierarchical fabrics the equivalence suites add to
// the crossbar: three domains of two ranks each on the suites' six-rank
// world, so 2 shards do not divide the domains and 4 and 8 exceed them.
// The fat tree's domains are its pods (leaves of one rank, pods of two,
// 5 hops apart), the others' pods and groups (3 hops apart).
var topoWorlds = []struct {
	name string
	top  netsim.Topology
}{
	{"fat-tree", netsim.NewFatTree(1, 2, 2, 2)},
	{"two-tier", netsim.NewTwoTier(2, 4)},
	{"dragonfly", netsim.NewDragonfly(2, 4)},
}

// TestShardedGoldenEquivalence runs the protocol-workout workload on the
// windowed engine at several shard counts and requires byte-identical
// golden counters across all of them, per mode.
func TestShardedGoldenEquivalence(t *testing.T) {
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			ref, _ := runEquivWorkload(t, mode, EngineDES, withShards(1))
			// The windowed engine changes event interleaving relative to the
			// classic engine, but this workload serializes every operation, so
			// even the classic goldens must hold.
			if ref != equivGolden[mode] {
				t.Errorf("shards=1 drifted from the classic goldens\n got: %v\nwant: %v", ref, equivGolden[mode])
			}
			for _, n := range shardCounts {
				got, _ := runEquivWorkload(t, mode, EngineDES, withShards(n))
				if got != ref {
					t.Errorf("shards=%d diverged from shards=1\n got: %v\nwant: %v", n, got, ref)
				}
			}
		})
	}
	// On the hierarchical fabrics windows span the domains' cheapest path
	// and sends within a domain land inside them; the fat tree also runs
	// migration churn (shardChurn).
	for _, tw := range topoWorlds {
		for _, mode := range allModes {
			tw, mode := tw, mode
			t.Run(tw.name+"/"+mode.String(), func(t *testing.T) {
				topo := func(c *Config) { c.Ranks, c.Topology = 6, tw.top }
				ref, _ := runEquivWorkload(t, mode, EngineDES, topo, withShards(1))
				churn := ""
				if tw.name == "fat-tree" {
					churn = shardChurn(t, mode, tw.top, 1)
				}
				for _, n := range shardCounts {
					if got, _ := runEquivWorkload(t, mode, EngineDES, topo, withShards(n)); got != ref {
						t.Errorf("shards=%d diverged from shards=1\n got: %v\nwant: %v", n, got, ref)
					}
					if churn == "" {
						continue
					}
					if got := shardChurn(t, mode, tw.top, n); got != churn {
						t.Errorf("shards=%d churn diverged from shards=1\n got:\n%s\nwant:\n%s", n, got, churn)
					}
				}
			})
		}
	}
}

// shardChurn runs migration churn on a 6-rank world over top: every
// rank's calls to every block race migrations issued without waiting,
// round after round, and it returns the values, stats and state dump.
func shardChurn(t *testing.T, mode Mode, top netsim.Topology, shards int) string {
	t.Helper()
	const ranks, nblocks = 6, 12
	w := testWorld(t, Config{Ranks: ranks, Mode: mode, Engine: EngineDES, Shards: shards, Topology: top})
	bump := w.Register("bump", func(c *Ctx) {
		data := c.Local(c.P.Target)
		copy(data, parcel.PutU64(nil, parcel.U64(data, 0)+1))
		c.Continue(data[:8])
	})
	w.Start()
	lay, err := w.AllocCyclic(0, 64, nblocks)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for round := 0; round < 4; round++ {
		var refs []*LCORef
		for r := 0; r < ranks; r++ {
			for d := uint32(0); d < nblocks; d++ {
				refs = append(refs, w.Proc(r).Call(lay.BlockAt(d), bump, nil))
			}
		}
		if mode != PGAS {
			for d := uint32(round % 2); d < nblocks; d += 2 {
				refs = append(refs, w.Proc(int(d)%ranks).Migrate(lay.BlockAt(d), (int(d)+round+1)%ranks))
			}
		}
		for _, f := range refs {
			fmt.Fprintf(&out, "%x ", w.MustWait(f))
		}
		fmt.Fprintf(&out, "\nround %d at %v\n", round, w.Now())
	}
	if err := w.DumpState(&out); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "stats: %v\n", equivOf(w.Stats()))
	w.Stop()
	return out.String()
}

// TestShardedChaosEquivalence repeats the comparison on a faulty fabric:
// with seeded drops, duplicates, and reordering active, shard count
// still must not leak into anything observable — not even the repair
// traffic, since the per-NIC fault streams are forked from the plan seed
// independently of sharding.
func TestShardedChaosEquivalence(t *testing.T) {
	plan := chaosPlan(t)
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			ref, rw := runEquivWorkload(t, mode, EngineDES, withFaults(plan), withShards(1))
			refDel := fmt.Sprintf("%+v", rw.DeliveryStats())
			if rw.DeliveryStats().Faults.Dropped == 0 {
				t.Error("fault plan active but nothing dropped at shards=1")
			}
			for _, n := range shardCounts {
				got, gw := runEquivWorkload(t, mode, EngineDES, withFaults(plan), withShards(n))
				if got != ref {
					t.Errorf("shards=%d counters diverged under faults\n got: %v\nwant: %v", n, got, ref)
				}
				if gotDel := fmt.Sprintf("%+v", gw.DeliveryStats()); gotDel != refDel {
					t.Errorf("shards=%d delivery report diverged under faults\n got: %s\nwant: %s", n, gotDel, refDel)
				}
			}
		})
	}
}

// shardImage runs a migration-heavy workload and captures a full image:
// the protocol-state dump plus every block's bytes read back. Everything
// in it must be shard-count invariant.
func shardImage(t *testing.T, mode Mode, top netsim.Topology, shards int) string {
	t.Helper()
	const ranks, nblocks = 6, 12
	w := testWorld(t, Config{Ranks: ranks, Mode: mode, Engine: EngineDES, Shards: shards, Topology: top})
	bump := w.Register("bump", func(c *Ctx) {
		data := c.Local(c.P.Target)
		v := parcel.U64(data, 0)
		copy(data, parcel.PutU64(nil, v+3))
		c.Continue(nil)
	})
	w.Start()
	lay, err := w.AllocCyclic(0, 64, nblocks)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		for d := uint32(0); d < nblocks; d++ {
			w.MustWait(w.Proc(r).Call(lay.BlockAt(d), bump, nil))
			if (int(d)+r)%3 == 0 {
				w.MustWait(w.Proc(r).Put(lay.BlockAt(d), []byte{byte(r), byte(d), 7, 7}))
			}
		}
	}
	if mode != PGAS {
		for d := uint32(0); d < nblocks; d += 2 {
			w.MustWait(w.Proc(int(d)%ranks).Migrate(lay.BlockAt(d), (int(d)+3)%ranks))
		}
		for r := 0; r < ranks; r++ {
			for d := uint32(0); d < nblocks; d++ {
				w.MustWait(w.Proc(r).Call(lay.BlockAt(d), bump, nil))
			}
		}
	}
	var img bytes.Buffer
	for d := uint32(0); d < nblocks; d++ {
		fmt.Fprintf(&img, "block %d: %x\n", d, w.MustWait(w.Proc(0).Get(lay.BlockAt(d), 16)))
	}
	if err := w.DumpState(&img); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&img, "stats: %v\n", equivOf(w.Stats()))
	w.Stop()
	return img.String()
}

// TestShardedMemoryImageEquivalence: block contents, residency layout,
// engine clock, and counters — the whole observable image — must be
// byte-identical across shard counts, on the crossbar and on each
// hierarchical fabric.
func TestShardedMemoryImageEquivalence(t *testing.T) {
	worlds := append([]struct {
		name string
		top  netsim.Topology
	}{{"", nil}}, topoWorlds...)
	for _, tw := range worlds {
		for _, mode := range allModes {
			tw, mode := tw, mode
			name := mode.String()
			if tw.name != "" {
				name = tw.name + "/" + name
			}
			t.Run(name, func(t *testing.T) {
				ref := shardImage(t, mode, tw.top, 1)
				for _, n := range shardCounts {
					if got := shardImage(t, mode, tw.top, n); got != ref {
						t.Errorf("shards=%d image diverged from shards=1\n got:\n%s\nwant:\n%s", n, got, ref)
					}
				}
			})
		}
	}
}

// replMigrateRun is the replicated-migration world: 8 ranks, every block
// replicated on two holders, reads from every rank racing migrations of
// the replicated blocks, and a second replicated layout freed with
// FreeAsync while the reads run. A migration re-homes the replica set
// and rewrites every rank's NIC read routes, and a free sweeps every
// rank's holder record and NIC: writes into other ranks that a sharded
// engine defers to the merge barrier (Locality.post). It returns the
// values read, the statuses, the stats and the state dump.
func replMigrateRun(t *testing.T, shards int) string {
	t.Helper()
	const ranks, nblocks = 8, 16
	w := testWorld(t, Config{Ranks: ranks, Mode: AGASNM, Engine: EngineDES, Shards: shards})
	w.Start()
	lay, err := w.AllocCyclic(0, 64, nblocks)
	if err != nil {
		t.Fatal(err)
	}
	tmp, err := w.AllocCyclic(3, 64, ranks)
	if err != nil {
		t.Fatal(err)
	}
	for d := uint32(0); d < nblocks; d++ {
		w.MustWait(w.Proc(int(d)%ranks).Put(lay.BlockAt(d), []byte{byte(d), 1, 2, 3}))
	}
	for _, l := range []gas.Layout{lay, tmp} {
		if err := w.ReplicateLive(l, 2); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	for round := 0; round < 4; round++ {
		var refs []*LCORef
		for r := 0; r < ranks; r++ {
			for d := uint32(0); d < nblocks; d++ {
				refs = append(refs, w.Proc(r).Get(lay.BlockAt(d), 4))
			}
			if round < 2 {
				refs = append(refs, w.Proc(r).Get(tmp.BlockAt(uint32(r)), 4))
			}
		}
		for d := uint32(round % 2); d < nblocks; d += 2 {
			refs = append(refs, w.Proc(int(d+3)%ranks).Migrate(lay.BlockAt(d), (int(d)+round+1)%ranks))
		}
		if round == 2 {
			refs = append(refs, w.Proc(5).FreeAsync(tmp))
		}
		for _, f := range refs {
			fmt.Fprintf(&out, "%x ", w.MustWait(f))
		}
		fmt.Fprintf(&out, "\nround %d at %v\n", round, w.Now())
	}
	if err := w.DumpState(&out); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "stats: %v\n", equivOf(w.Stats()))
	w.Stop()
	return out.String()
}

// TestShardedReplicaMigrationRace runs the replicated-migration world on
// 4 shards; under -race a write into another rank's NIC or holder record
// from a handler's window, beside that rank's shard, is a reported race.
func TestShardedReplicaMigrationRace(t *testing.T) {
	if got := replMigrateRun(t, 4); !strings.Contains(got, "round 3") {
		t.Fatalf("the run did not finish its rounds:\n%s", got)
	}
}

// TestShardedReplicaMigrationEquivalence: the replicated-migration world
// replays bit-identically at every shard count. The classic engine
// (shards=0) runs those writes at once, inside the handler, so its run is
// a different (equally valid) execution and is not compared.
func TestShardedReplicaMigrationEquivalence(t *testing.T) {
	ref := replMigrateRun(t, 1)
	for _, n := range shardCounts {
		if got := replMigrateRun(t, n); got != ref {
			t.Errorf("shards=%d replicated-migration run diverged from shards=1\n got:\n%s\nwant:\n%s", n, got, ref)
		}
	}
}

// shardKillRun drives the C2-style scheduled kill/restart pipeline on a
// sharded world and reports everything observable: membership stats,
// values read around the death window, and the final state dump.
func shardKillRun(t *testing.T, shards int) string {
	t.Helper()
	w := testWorld(t, Config{
		Ranks: 4, Mode: AGASNM, Engine: EngineDES, Shards: shards,
		Reliability: relStress,
		Faults: netsim.FaultPlan{
			KillAt:    map[int]netsim.VTime{1: 50_000},
			RestartAt: map[int]netsim.VTime{1: 60_000_000},
		},
	})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(0)
	var log bytes.Buffer
	w.MustWait(w.Proc(0).Put(g, []byte{1}))
	if err := w.ReplicateLive(lay, 2); err != nil {
		t.Fatal(err)
	}
	w.Engine().RunUntil(func() bool { return w.Now() >= 50_000 })
	w.MustWait(w.Proc(0).Put(g, []byte{2}))
	if !w.AwaitMember(1, MemberDead, 20*time.Second) {
		t.Fatalf("shards=%d: scheduled kill never confirmed: %+v", shards, w.MembershipStats())
	}
	fmt.Fprintf(&log, "after-death read: %v at %v\n", w.MustWait(w.Proc(2).Get(g, 1)), w.Now())
	if !w.AwaitMember(1, MemberAlive, 20*time.Second) {
		t.Fatalf("shards=%d: scheduled restart never rejoined: %+v", shards, w.MembershipStats())
	}
	fmt.Fprintf(&log, "reborn read: %v at %v\n", w.MustWait(w.Proc(1).Get(g, 1)), w.Now())
	ms := w.MembershipStats()
	fmt.Fprintf(&log, "membership: %+v\n", ms)
	if ms.Deaths != 1 || ms.Joins != 1 {
		t.Fatalf("shards=%d: deaths=%d joins=%d, want 1/1", shards, ms.Deaths, ms.Joins)
	}
	if err := w.DumpState(&log); err != nil {
		t.Fatal(err)
	}
	w.Stop()
	return log.String()
}

// TestShardedKillRestartEquivalence: the crash-recovery pipeline — kill,
// suspicion, death, replica promotion, rebirth — runs through barrier
// tasks under sharding and must replay identically at every shard count,
// down to the virtual times at which the probe reads land.
func TestShardedKillRestartEquivalence(t *testing.T) {
	ref := shardKillRun(t, 1)
	for _, n := range shardCounts {
		if got := shardKillRun(t, n); got != ref {
			t.Errorf("shards=%d kill/restart run diverged from shards=1\n got:\n%s\nwant:\n%s", n, got, ref)
		}
	}
}

// TestShardedRankClockIsEventTime: code running inside a rank reads its
// rank's engine face, so under sharding the trace stamps, the latency
// samples and an action's c.Now() are the running event's time — what the
// classic engine reads — and not the driver façade's, whose clock is the
// last barrier. The two operations touch disjoint ranks, so the classic
// engine and every shard count run the same events at the same times.
func TestShardedRankClockIsEventTime(t *testing.T) {
	run := func(shards int) string {
		w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES, Shards: shards, Metrics: true})
		var mu sync.Mutex
		var log []string
		note := func(format string, args ...any) {
			mu.Lock()
			log = append(log, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
		w.SetTracer(func(ev TraceEvent) {
			note("trace %d r%d %v b%d i%d op%x", ev.Time, ev.Rank, ev.Kind, ev.Block, ev.Info, ev.OpID)
		})
		stamp := w.Register("stamp", func(c *Ctx) {
			note("now %d r%d", c.Now(), c.Rank())
			c.Continue(nil)
		})
		w.Start()
		lay, err := w.AllocCyclic(0, 64, 4)
		if err != nil {
			t.Fatal(err)
		}
		call := w.Proc(0).Call(lay.BlockAt(1), stamp, nil)
		put := w.Proc(2).Put(lay.BlockAt(3), []byte{1})
		w.Drain()
		if !call.Ready() || !put.Ready() {
			t.Fatalf("shards=%d: operations did not complete", shards)
		}
		lat := w.Latencies()
		sort.Strings(log)
		return fmt.Sprintf("%s\nparcel_exec %+v\nput %+v", strings.Join(log, "\n"), lat.Path[LatParcelExec], lat.Path[LatPutDone])
	}
	ref := run(0)
	if !strings.Contains(ref, "now 1819 r1") {
		t.Fatalf("classic world: the action did not read its event time (one-way parcel 1 819 ns):\n%s", ref)
	}
	for _, n := range []int{1, 4} {
		if got := run(n); got != ref {
			t.Errorf("shards=%d: in-rank clock reads diverged from the classic engine\n got:\n%s\nwant:\n%s", n, got, ref)
		}
	}
}

// TestShardsConfigValidation pins Config.Shards normalization: negative
// rejected, larger-than-ranks clamped, EngineGo unaffected.
func TestShardsConfigValidation(t *testing.T) {
	if _, err := NewWorld(Config{Ranks: 2, Shards: -1}); err == nil {
		t.Error("negative Shards accepted")
	}
	w, err := NewWorld(Config{Ranks: 2, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if w.Config().Shards != 2 {
		t.Errorf("Shards not clamped to ranks: %d", w.Config().Shards)
	}
	if eng := w.Engine(); eng.RankEngine(0) == eng {
		t.Error("sharded world did not get a sharded engine")
	}
	w.Stop()
}
