package exp

import (
	"nmvgas/internal/runtime"
	"nmvgas/internal/stats"
	"nmvgas/internal/workloads"
)

func init() {
	register("F13", "Fig. 13: parcel coalescing — throughput vs latency trade", f13Coalesce)
}

// f13Coalesce sweeps the coalescing window for a parcel-dominated
// workload (GUPS) under the network-managed mode: larger batches amortize
// per-message injection and NIC occupancy (throughput up) but delay lone
// parcels and detour post-migration traffic through the batch target
// (latency up). This is the trade the group's runtime papers discuss.
func f13Coalesce(o Options) *stats.Table {
	tb := stats.NewTable("Fig. 13: coalescing window sweep (agas-nm, 8 ranks)",
		"max_parcels", "gups_Kups", "wire_msgs", "lone_parcel_rtt_us", "batch_reroutes")
	const ranks = 8
	perRank := 300
	if o.Quick {
		perRank = 80
	}
	for _, window := range []int{1, 4, 16, 64} {
		w := newWorld(runtime.SpaceFor(runtime.AGASNM), ranks, func(c *runtime.Config) {
			if window > 1 {
				c.Coalesce = runtime.CoalesceConfig{MaxParcels: window}
			}
		})
		g := workloads.NewGUPS(w, "gups")
		echo := w.Register("echo", func(c *runtime.Ctx) { c.Continue(nil) })
		w.Start()
		if err := g.Setup(1024, uint32(4*ranks), workloads.KeysUniform, o.Seed); err != nil {
			panic(err)
		}
		start := w.Now()
		n, err := g.Run(perRank, 16)
		if err != nil {
			panic(err)
		}
		elapsed := w.Now() - start
		kups := float64(n) / (float64(elapsed) / 1e9) / 1e3
		msgs := w.Stats().NetSent

		// A lone request-reply with nothing to batch against: pays the
		// full coalescer delay (2 µs) twice when coalescing is on.
		lay, err := w.AllocLocal(1, 256, 1)
		if err != nil {
			panic(err)
		}
		w.MustWait(w.Proc(0).Call(lay.BlockAt(0), echo, nil))
		rtt := timeOp(w, func() *runtime.LCORef {
			return w.Proc(0).Call(lay.BlockAt(0), echo, nil)
		})
		// Under agas-nm the NIC scatters arriving batches, so records that
		// chased a migrated block never detour through the batch target's
		// host: the re-route counter stays zero where the software-managed
		// variant pays one per stale record.
		tb.AddRow(window, kups, msgs, rtt.Micros(), w.Stats().BatchReroutes)
		w.Stop()
	}
	return tb
}
