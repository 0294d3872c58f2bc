package exp

import (
	"math/rand"

	"nmvgas/internal/runtime"
	"nmvgas/internal/stats"
	"nmvgas/internal/workloads"
)

func init() {
	register("F14", "Fig. 14: read-mostly data — remote gets vs coherent replication", f14Replication)
	register("F16", "Fig. 16: coherent replication — read throughput vs replica count", f16ReplicatedReads)
}

// f14Replication measures a read-dominated access pattern (random gets
// over a lookup-table layout) before and after installing a live replica
// set on every rank. Replication turns every get into a local copy, so
// the win is the full wire round-trip — and since no writes occur during
// the measurement, no coherence traffic dilutes it in any mode.
func f14Replication(o Options) *stats.Table {
	tb := stats.NewTable("Fig. 14: random 64B gets over a lookup table (µs/op)",
		"mode", "remote_us", "replicated_us", "speedup")
	const ranks = 8
	reads := 200
	if o.Quick {
		reads = 60
	}
	for _, sp := range o.sweep() {
		w := newWorld(sp, ranks)
		w.Start()
		lay, err := w.AllocCyclic(0, 4096, 16)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(o.Seed))
		measure := func() float64 {
			start := w.Now()
			for i := 0; i < reads; i++ {
				d := uint32(rng.Intn(16))
				off := uint32(rng.Intn(4096 - 64))
				w.MustWait(w.Proc(rng.Intn(ranks)).Get(lay.BlockAt(d).WithOffset(off), 64))
			}
			return (w.Now() - start).Micros() / float64(reads)
		}
		remote := measure()
		if err := w.ReplicateLive(lay, w.Ranks()-1); err != nil {
			panic(err)
		}
		replicated := measure()
		tb.AddRow(sp.String(), remote, replicated, remote/replicated)
		w.Stop()
	}
	return tb
}

// f16ReplicatedReads drives the read-heavy Zipfian workload over a live
// replica set, sweeping the replica count per block. Each cell runs two
// phases over the same table: a warm phase with writes mixed into the
// skewed stream (this is where write-invalidate coherence churns — and
// where software AGAS pays host-side corrections for every read landing
// in an invalidation's stale window), then, after the coherence traffic
// drains, a timed pure-read phase. Reads are large enough (2 KiB of a
// 4 KiB block) that the hot block's serving NIC link — not the issuing
// hosts — is the unreplicated bottleneck, which is precisely the
// resource a replica set multiplies.
//
// The claims under test: network-managed AGAS serves replica hits
// entirely in-network — the measured phase completes with zero host
// re-route detours — and its read throughput scales with the replica
// count, while software AGAS shows the invalidation-storm corrections in
// the warm-phase detour column.
// f16Ranks is the replication experiment's world size, which bounds
// Options.Replicas (Options.Validate).
const f16Ranks = 8

func f16ReplicatedReads(o Options) *stats.Table {
	tb := stats.NewTable("Fig. 16: Zipfian 2KiB reads over replicated blocks (measured phase is write-free)",
		"mode", "replicas", "reads_per_ms", "read_detours", "warm_detours", "stale_reads", "invals", "fills")
	const ranks = f16Ranks
	perRank, warmPerRank, window := 400, 120, 8
	sweepN := []int{0, 1, 3, 7}
	if o.Quick {
		perRank, warmPerRank = 100, 36
		sweepN = []int{0, 3}
	}
	if o.Replicas > 0 {
		sweepN = []int{0, o.Replicas}
	}
	for _, sp := range o.sweep() {
		for _, n := range sweepN {
			w := newWorld(sp, ranks, func(c *runtime.Config) { c.Coherence = o.Coherence })
			rh := workloads.NewReadHot(w)
			w.Start()
			if err := rh.Setup(4096, 16, 2048, 2.2, 6, o.Seed); err != nil {
				panic(err)
			}
			if n > 0 {
				if err := w.ReplicateLive(rh.Layout(), n); err != nil {
					panic(err)
				}
			}
			if _, err := rh.Run(warmPerRank, window); err != nil {
				panic(err)
			}
			w.Drain() // let in-flight invalidations and refills land
			warm := w.Stats()
			rh.SetWriteEvery(0)
			start := w.Now()
			if _, err := rh.Run(perRank, window); err != nil {
				panic(err)
			}
			elapsed := w.Now() - start
			s := w.Stats()
			readsPerMs := float64(rh.Reads()) / (elapsed.Micros() / 1000)
			detours := func(s runtime.WorldStats) int64 { return s.HostForwards + s.HostNacks }
			tb.AddRow(sp.String(), n, readsPerMs,
				detours(s)-detours(warm), detours(warm),
				s.ReplicaStaleReads, s.ReplicaInvals, s.ReplicaFills)
			w.Stop()
		}
	}
	return tb
}
