package runtime

import (
	"fmt"
	"testing"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// withFaults returns a Config mutator installing plan (and a fixed
// workload seed so fault draws replay exactly).
func withFaults(plan netsim.FaultPlan) func(*Config) {
	return func(c *Config) {
		c.Seed = 7
		c.Faults = plan
	}
}

func TestFaultSeedInheritsConfigSeed(t *testing.T) {
	w := testWorld(t, Config{
		Ranks: 2, Mode: PGAS, Engine: EngineDES, Seed: 9,
		Faults: netsim.FaultPlan{Drop: 0.01},
	})
	if got := w.Config().Faults.Seed; got != 9 {
		t.Fatalf("fault seed %d, want inherited 9", got)
	}
	// An explicit fault seed wins over the workload seed.
	w2 := testWorld(t, Config{
		Ranks: 2, Mode: PGAS, Engine: EngineDES, Seed: 9,
		Faults: netsim.FaultPlan{Seed: 3, Drop: 0.01},
	})
	if got := w2.Config().Faults.Seed; got != 3 {
		t.Fatalf("fault seed %d, want explicit 3", got)
	}
}

func TestDropRateValidation(t *testing.T) {
	if _, err := NewWorld(Config{Ranks: 2, Faults: netsim.FaultPlan{Drop: 1}}); err == nil {
		t.Fatal("certain drop accepted: no workload could ever complete")
	}
	if _, err := NewWorld(Config{Ranks: 2, Faults: netsim.FaultPlan{Drop: -0.1}}); err == nil {
		t.Fatal("negative drop accepted")
	}
}

func TestSameSeedIdenticalDeliveryStats(t *testing.T) {
	// Satellite: determinism. Two DES runs with the same workload seed and
	// the same fault plan must report byte-identical delivery stats —
	// drops, duplicates, retransmissions, acks, everything.
	plan := netsim.FaultPlan{Drop: 0.05, Duplicate: 0.02, Reorder: true}
	run := func() string {
		_, w := runEquivWorkload(t, AGASNM, EngineDES, withFaults(plan))
		return fmt.Sprintf("%+v", w.DeliveryStats())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different delivery stats:\n run1: %s\n run2: %s", a, b)
	}
	// And the report is non-trivial: the fabric actually misbehaved.
	_, w := runEquivWorkload(t, AGASNM, EngineDES, withFaults(plan))
	d := w.DeliveryStats()
	if d.Faults.Dropped == 0 || d.Tracked == 0 {
		t.Fatalf("fault plan injected nothing: %+v", d)
	}
}

func TestForceWithoutFaultsZeroRetransmits(t *testing.T) {
	// Acceptance: on a perfect fabric the reliability layer is pure
	// bookkeeping — everything tracked, nothing retransmitted, nothing
	// duplicated, nothing abandoned — and the golden counters still hold.
	for _, eng := range allEngines {
		got, w := runEquivWorkload(t, AGASNM, eng, func(c *Config) {
			c.Reliability.Force = true
		})
		if got != equivGolden[AGASNM] {
			t.Errorf("%v: forced reliability perturbed golden counters\n got: %v\nwant: %v",
				eng, got, equivGolden[AGASNM])
		}
		d := w.DeliveryStats()
		if d.Tracked == 0 {
			t.Errorf("%v: reliability forced on but nothing tracked", eng)
		}
		if d.Retransmits != 0 || d.DupsSuppressed != 0 || d.Abandoned != 0 || d.StaleDrops != 0 {
			t.Errorf("%v: fault-free run shows degradation: %+v", eng, d)
		}
	}
}

func TestReliabilityOffByDefault(t *testing.T) {
	_, w := runEquivWorkload(t, AGASNM, EngineDES)
	if w.relw != nil || w.Locality(0).rel != nil {
		t.Fatal("reliability layer active without faults or Force")
	}
	d := w.DeliveryStats()
	if d.Tracked != 0 || d.AcksSent != 0 {
		t.Fatalf("inactive layer reported activity: %+v", d)
	}
}

func TestForwardingLoopDegradesToAbandon(t *testing.T) {
	// Poisoned routing state: two NICs point a never-allocated block at
	// each other. The send must terminate — hop budget, loop NACK,
	// bounce cap, abandon — instead of panicking or looping forever.
	w := testWorld(t, Config{
		Ranks: 3, Mode: AGASNM, Engine: EngineDES,
		Reliability: ReliabilityConfig{Force: true, MaxAttempts: 2},
	})
	nop := w.Register("noop", func(c *Ctx) {})
	w.Start()
	w.net.State(1, 999, func(st *netsim.TransState) { st.InstallRoute(999, 2) })
	w.net.State(2, 999, func(st *netsim.TransState) { st.InstallRoute(999, 1) })
	w.Proc(0).Invoke(gas.New(1, 999, 0), nop, nil)
	w.Drain()

	d := w.DeliveryStats()
	if d.HopCapNacks == 0 {
		t.Fatal("hop budget never tripped")
	}
	if d.Abandoned == 0 {
		t.Fatal("poisoned route was never abandoned")
	}
	if w.Stats().LoopNacks != int64(d.HopCapNacks) {
		t.Fatalf("LoopNacks %d != HopCapNacks %d", w.Stats().LoopNacks, d.HopCapNacks)
	}
}

func TestHopCapConfigurable(t *testing.T) {
	if got := (netsim.Policy{}).HopCap(); got != netsim.DefaultMaxHops {
		t.Fatalf("zero policy hop cap %d, want %d", got, netsim.DefaultMaxHops)
	}
	if got := (netsim.Policy{MaxHops: 4}).HopCap(); got != 4 {
		t.Fatalf("explicit hop cap %d, want 4", got)
	}
}
