package exp

import (
	"nmvgas/internal/loadbal"
	"nmvgas/internal/netsim"
	"nmvgas/internal/runtime"
	"nmvgas/internal/stats"
	"nmvgas/internal/workloads"
)

func init() {
	register("F19", "Fig. 19: multi-tenant rebalancing — closed-loop heat policy vs static placement across a hotspot shift", f19Rebalance)
}

// RebalancePoint is one measured (mode, policy) cell of the F19
// rebalancing experiment.
type RebalancePoint struct {
	Mode         string
	Policy       bool
	PreOpsPerMs  float64
	PostOpsPerMs float64
	Imbalance    float64
	Moves        int64
	MoveFailures int64
	Replications int64
	Teardowns    int64
	Detours      int64
	// Pulse marks a run whose policy epochs were driven by the in-runtime
	// pulse (Policy.AttachPulse) instead of the driver loop; PulseTicks is
	// how many ticks fired (0 for driver-stepped runs).
	Pulse      bool
	PulseTicks uint64
}

// RebalanceBench drives the multi-tenant serving workload with and
// without the closed-loop policy on every migrating address space.
//
// The workload is adversarial by construction: one tenant per rank,
// blocks-per-tenant a multiple of the rank count, so the cyclic layout
// colocates every tenant's Zipf-hottest block on the SAME rank. Without
// the policy the bulk of all traffic serializes through that one
// locality — and stays remote for everyone. Each control epoch the
// policy migrates each tenant's dominant blocks to the rank that
// hammers them and replicates the read-mostly shared region, after
// which almost every access is a local hit. Mid-run, Shift() rotates
// every hotspot onto fresh (again colocated) blocks, invalidating the
// converged placement; the steady state measured after the shift shows
// whether the policy re-converges or the world stays pinned on the new
// hot rank.
//
// PreOpsPerMs/PostOpsPerMs are the last epoch of each regime — the
// converged steady states the F19 shape test compares. Imbalance is
// max/mean of the final epoch's per-rank sampled serving load.
func RebalanceBench(o Options) []RebalancePoint {
	// perRank > 200 so every epoch crosses the shared region's write
	// stride: the rare writes keep replica coherence honest, and their
	// invalidation windows are where software AGAS pays host-side repair
	// detours that the NIC-managed space absorbs in-network.
	perRank, preEpochs, postEpochs := 480, 5, 5
	if o.Quick {
		perRank, preEpochs, postEpochs = 220, 4, 4
	}
	perTenant := uint32(8)
	if o.TenantBlocks > 0 {
		perTenant = uint32(o.TenantBlocks)
	}
	shifts := 1
	if o.Shifts > 0 {
		shifts = o.Shifts
	}
	budget := 16
	if o.MoveBudget > 0 {
		budget = o.MoveBudget
	}
	var out []RebalancePoint
	for _, sp := range o.sweep() {
		if !sp.Caps.Migration {
			continue // a static space has no policy story to measure
		}
		for _, policy := range []bool{false, true} {
			pt, _ := rebalanceCell(o, sp, perRank, preEpochs, postEpochs,
				perTenant, shifts, budget, policy, false)
			out = append(out, pt)
		}
	}
	return out
}

// rebalanceExtra carries the pulse-side observations of a viaPulse cell:
// how many ticks fired and when the heat-imbalance watchdog first saw —
// and last saw — the hotspot (F20's remediation-latency row reads these).
type rebalanceExtra struct {
	pulses      uint64
	heatOnset   uint64 // first pulse the heat watchdog left ok
	heatLastHot uint64 // last pulse it was still above ok
}

func rebalanceCell(o Options, sp runtime.SpaceSpec, perRank, preEpochs, postEpochs int,
	perTenant uint32, shifts, budget int, policy, viaPulse bool) (RebalancePoint, rebalanceExtra) {
	const (
		ranks  = 8
		window = 8
	)
	w := newWorld(sp, ranks, withHeat, func(cfg *runtime.Config) {
		if viaPulse {
			// The pulse replaces the driver epoch loop; the heat watchdog's
			// thresholds are lowered so the colocated hotspot registers as
			// an anomaly the pulse-driven policy then remediates.
			cfg.Pulse = runtime.PulseConfig{
				Enabled: true,
				Period:  200 * netsim.Microsecond,
				Watchdogs: runtime.WatchdogConfig{
					HeatWarn: 2, HeatCritical: 3,
				},
			}
		}
	})
	tn := workloads.NewTenants(w)
	var extra rebalanceExtra
	if viaPulse {
		w.OnPulse("exp.heat-track", func(pi runtime.PulseInfo) {
			for _, st := range w.Health().Watchdogs {
				if st.Name == runtime.WatchHeatImbalance && st.Level > runtime.WatchOK {
					if extra.heatOnset == 0 {
						extra.heatOnset = pi.Seq
					}
					extra.heatLastHot = pi.Seq
				}
			}
		})
	}
	w.Start()
	// bsize 256, 4 shared read-mostly blocks, 64B reads, skew 1.8, a
	// write every 6th tenant op: hot blocks are write-mixed (so the
	// policy migrates them) while the shared region stays read-dominated
	// (so the policy replicates it).
	if err := tn.Setup(256, perTenant, 4, 64, 1.8, 6, o.Seed); err != nil {
		panic(err)
	}
	var p *loadbal.Policy
	if policy {
		cfg := loadbal.PolicyConfig{
			Layout:     tn.Layout(),
			MoveBudget: budget,
			// Low hot floor: the colocated second- and third-ranked Zipf
			// blocks carry enough aggregate traffic to matter, so the
			// policy must chase more than one block per tenant.
			HotShare: 0.005,
		}
		if sp.Caps.Replication {
			cfg.Replicas = ranks - 1
		}
		var err error
		if p, err = loadbal.NewPolicy(w, cfg); err != nil {
			panic(err)
		}
		if viaPulse {
			p.AttachPulse(1)
		}
	}
	imb := 0.0
	epoch := func() float64 {
		start := w.Now()
		n, err := tn.Run(perRank, window)
		if err != nil {
			panic(err)
		}
		elapsed := w.Now() - start
		if p != nil && viaPulse {
			// The pulse steps the policy in-runtime; the driver only reads
			// the latest control outcome.
			imb = p.LastReport().Imbalance
		} else if p != nil {
			rep, err := p.Step()
			if err != nil {
				panic(err)
			}
			imb = rep.Imbalance
		} else {
			// Policy off: consume the heat window anyway so both arms
			// measure identical per-epoch sampling state.
			loads, _ := w.HeatEpoch()
			imb = loadbal.Imbalance(loads)
		}
		return float64(n) / (elapsed.Micros() / 1000)
	}
	var pre, post float64
	for e := 0; e < preEpochs; e++ {
		pre = epoch()
	}
	for s := 0; s < shifts; s++ {
		tn.Shift()
		for e := 0; e < postEpochs; e++ {
			post = epoch()
		}
	}
	ws := w.Stats()
	pt := RebalancePoint{
		Mode:        sp.String(),
		Policy:      policy,
		PreOpsPerMs: pre, PostOpsPerMs: post,
		Imbalance: imb,
		Detours:   ws.HostForwards + ws.HostNacks,
		Pulse:     viaPulse,
	}
	if p != nil {
		st := p.Stats()
		pt.Moves, pt.MoveFailures = st.Moves, st.MoveFailures
		pt.Replications, pt.Teardowns = st.Replications, st.Teardowns
	}
	extra.pulses = w.PulseCount()
	pt.PulseTicks = extra.pulses
	w.Stop()
	return pt, extra
}

// f19Rebalance renders the rebalancing sweep: for each migrating mode, a
// policy-off baseline row and a policy-on row. The claims under test:
// the policy's steady state sustains a multiple of the static
// throughput before AND after the hotspot shift (it re-converges), its
// serving load flattens to max/mean ≤ 1.3, and the migration churn that
// software AGAS pays for in host-side repair detours is absorbed
// in-network by the NIC-managed space.
func f19Rebalance(o Options) *stats.Table {
	tb := stats.NewTable("Fig. 19: multi-tenant Zipfian serving across a hotspot shift (ops/ms; policy off vs on)",
		"mode", "policy", "pre_ops_ms", "post_ops_ms", "imbalance", "moves", "repl", "detours")
	for _, pt := range RebalanceBench(o) {
		pol := "off"
		if pt.Policy {
			pol = "on"
		}
		tb.AddRow(pt.Mode, pol, pt.PreOpsPerMs, pt.PostOpsPerMs, pt.Imbalance,
			pt.Moves, pt.Replications, pt.Detours)
	}
	return tb
}
