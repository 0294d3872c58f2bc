package runtime

import (
	"math"
	"os"
	"testing"

	"nmvgas/internal/netsim"
)

// The chaos suite re-runs the golden-counter equivalence workload on a
// faulty fabric. The acceptance bar: with drops, duplicates, and
// reordering injected, every mode on both engines still produces exactly
// the application-visible golden counters — loss shows up only in
// DeliveryStats (retransmits, suppressed duplicates), never in what the
// application observed.
//
// The plan is overridable via NMVGAS_FAULTS (ParseFaultPlan syntax), so
// CI can sweep harsher schedules without a rebuild.

// chaosPlan returns the fault plan under test.
func chaosPlan(t *testing.T) netsim.FaultPlan {
	t.Helper()
	spec := os.Getenv("NMVGAS_FAULTS")
	if spec == "" {
		spec = "drop=0.05,dup=0.02,reorder=1"
	}
	plan, err := netsim.ParseFaultPlan(spec)
	if err != nil {
		t.Fatalf("NMVGAS_FAULTS: %v", err)
	}
	return plan
}

// chaosCounters is the fault-insensitive subset of the golden counters:
// what the application did. Repair-path counters (forwards, NACKs,
// queue parks, lookups) legitimately vary with the fault schedule —
// retransmitted messages retrace repair paths — and are judged by the
// delivery report instead.
type chaosCounters struct {
	ParcelsSent int64
	ParcelsRun  int64
	LocalRuns   int64
	PutOps      int64
	GetOps      int64
	PutBytes    int64
	GetBytes    int64
	Migrations  int64
}

func chaosSubset(c equivCounters) chaosCounters {
	return chaosCounters{
		ParcelsSent: c.ParcelsSent,
		ParcelsRun:  c.ParcelsRun,
		LocalRuns:   c.LocalRuns,
		PutOps:      c.PutOps,
		GetOps:      c.GetOps,
		PutBytes:    c.PutBytes,
		GetBytes:    c.GetBytes,
		Migrations:  c.Migrations,
	}
}

func TestChaosGoldenEquivalence(t *testing.T) {
	plan := chaosPlan(t)
	for _, mode := range allModes {
		for _, eng := range allEngines {
			mode, eng := mode, eng
			t.Run(mode.String()+"/"+eng.String(), func(t *testing.T) {
				got, w := runEquivWorkload(t, mode, eng, withFaults(plan))
				want := chaosSubset(equivGolden[mode])
				if g := chaosSubset(got); g != want {
					t.Errorf("application-visible counters drifted under faults\n got: %+v\nwant: %+v\ndelivery: %+v",
						g, want, w.DeliveryStats())
				}
				d := w.DeliveryStats()
				if d.Tracked == 0 {
					t.Error("fault plan active but nothing tracked")
				}
				if eng == EngineDES && plan.Drop > 0 {
					// DES replays the same fault schedule every run: at 5%
					// drop over this workload, losses — and therefore
					// retransmissions — are guaranteed, not probabilistic.
					if d.Faults.Dropped == 0 {
						t.Error("drop probability configured but nothing dropped")
					}
					if d.Retransmits == 0 {
						t.Error("messages were dropped but none retransmitted")
					}
				}
			})
		}
	}
}

// chaosReplCounters is the fault-insensitive subset of the replicated
// goldens. Coherence applications (invalidations, refills) sit behind the
// dedup gate, so they are exact under duplication and loss; read-serving
// counters tick per delivery (before dedup) and are judged by the value
// checks inside the workload instead.
type chaosReplCounters struct {
	chaosCounters
	ReplicaInvals int64
	ReplicaFills  int64
}

func chaosReplSubset(c replEquivCounters) chaosReplCounters {
	return chaosReplCounters{
		chaosCounters: chaosSubset(c.equivCounters),
		ReplicaInvals: c.ReplicaInvals,
		ReplicaFills:  c.ReplicaFills,
	}
}

func TestChaosReplicatedEquivalence(t *testing.T) {
	// The replicated workload under injected drops, duplicates, and
	// reordering: every read still observes the coherent value (checked
	// inside the workload) and the application-visible counters — now
	// including exactly-once invalidation and refill application — match
	// the fault-free goldens.
	plan := chaosPlan(t)
	for _, mode := range allModes {
		for _, eng := range allEngines {
			mode, eng := mode, eng
			t.Run(mode.String()+"/"+eng.String(), func(t *testing.T) {
				got, w := runReplEquivWorkload(t, mode, eng, withFaults(plan))
				want := chaosReplSubset(replGolden[mode])
				if g := chaosReplSubset(got); g != want {
					t.Errorf("replicated counters drifted under faults\n got: %+v\nwant: %+v\ndelivery: %+v",
						g, want, w.DeliveryStats())
				}
				if d := w.DeliveryStats(); d.Tracked == 0 {
					t.Error("fault plan active but nothing tracked")
				}
			})
		}
	}
}

func TestChaosTargetedCtlUpdateLoss(t *testing.T) {
	// The tentpole's targeted injection: lose exactly the Nth
	// CtlTableUpdate the fabric carries. Pushed table updates are pure
	// optimization — losing one may reroute later traffic through the
	// home but must not change what the application observes.
	for _, nth := range []int{1, 3} {
		plan := netsim.FaultPlan{DropNthCtl: map[uint8]int{netsim.CtlTableUpdate: nth}}
		got, w := runEquivWorkload(t, AGASNM, EngineDES, withFaults(plan))
		want := chaosSubset(equivGolden[AGASNM])
		if g := chaosSubset(got); g != want {
			t.Errorf("nth=%d: counters drifted\n got: %+v\nwant: %+v", nth, g, want)
		}
		if d := w.DeliveryStats(); d.Faults.TargetedDrops != 1 {
			t.Errorf("nth=%d: targeted drops %d, want 1", nth, d.Faults.TargetedDrops)
		}
	}
}

func TestChaosTableLoss(t *testing.T) {
	// Forced translation-entry loss: NIC tables keep forgetting entries;
	// traffic degrades to home-routed and forwarded, the application
	// result stands. Each arrival's draw sees the NIC's whole table on
	// both engines, so both lose entries at the model's rate: DES loses 5
	// on this plan, the goroutine engine 3–8 with its schedule.
	plan := netsim.FaultPlan{TableLoss: 0.2}
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			got, w := runEquivWorkload(t, AGASNM, eng, withFaults(plan))
			want := chaosSubset(equivGolden[AGASNM])
			if g := chaosSubset(got); g != want {
				t.Errorf("counters drifted under table loss\n got: %+v\nwant: %+v", g, want)
			}
			if lost := w.DeliveryStats().Faults.TableEntriesLost; lost < 3 {
				t.Errorf("20%% table loss lost %d entries, want at least 3", lost)
			}
		})
	}
}

// TestFaultPlanOutOfRangeRejected feeds out-of-range fault plans through
// both routes into a world — a spec (NMVGAS_FAULTS, vgasbench -faults)
// and plan fields set directly — and requires an
// error before anything runs. Accepted, kill=9:100 on four ranks panics
// at simulated time indexing the membership table, and a negative time
// panics in Engine.At; a NaN drop passes a bare [0,1) comparison.
func TestFaultPlanOutOfRangeRejected(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		spec string
		plan netsim.FaultPlan
	}{
		{spec: "kill=9:100"},
		{spec: "kill=-1:100"},
		{spec: "kill=1:-100"},
		{spec: "restart=4:100"},
		{spec: "restart=1:-1"},
		{spec: "dup=1.5"},
		{spec: "delay=-1"},
		{spec: "tableloss=NaN"},
		{spec: "drop=NaN"},
		{spec: "drop=1"},
		{spec: "maxdelay=-1"},
		{plan: netsim.FaultPlan{Drop: nan}},
		{plan: netsim.FaultPlan{Drop: -0.1}},
		{plan: netsim.FaultPlan{Duplicate: 1.5}},
		{plan: netsim.FaultPlan{DelayProb: nan}},
	}
	for _, tc := range cases {
		plan, err := netsim.ParseFaultPlan(tc.spec)
		if tc.spec == "" {
			plan = tc.plan
		}
		if err == nil {
			_, err = NewWorld(Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES, Faults: plan})
		}
		if err == nil {
			t.Errorf("spec %q / plan %+v: accepted, want an error", tc.spec, tc.plan)
		}
	}
	// The boundaries themselves are fine.
	ok := netsim.FaultPlan{Drop: 0.99, Duplicate: 1, DelayProb: 0, TableLoss: 1,
		KillAt: map[int]netsim.VTime{3: 0}, RestartAt: map[int]netsim.VTime{0: 5}}
	if _, err := NewWorld(Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES, Faults: ok}); err != nil {
		t.Fatalf("in-range plan rejected: %v", err)
	}
}
