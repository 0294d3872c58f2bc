package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// TestReliableLedgerMatchesParent holds the layer to numbers recorded at
// the commit before its state became sliding windows (67468be), not to
// itself: the equivalence workload on DES under drop=0.05,dup=0.02,reorder,
// seed 7, must reproduce testdata/reliable_ledger line for line — the
// whole delivery report, what is still unacked, the event count, the end
// clock and the golden counters of each mode. A protocol change (what is
// tracked, when a timer fires, what an ack clears) moves at least one of
// them; a change of representation moves none.
func TestReliableLedgerMatchesParent(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "reliable_ledger"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, ln := range strings.Split(string(raw), "\n") {
		if ln != "" && !strings.HasPrefix(ln, "#") {
			want = append(want, ln)
		}
	}
	if len(want) != len(allModes) {
		t.Fatalf("testdata/reliable_ledger: %d rows, want one per mode (%d)", len(want), len(allModes))
	}
	plan := netsim.FaultPlan{Drop: 0.05, Duplicate: 0.02, Reorder: true}
	for i, mode := range allModes {
		counters, w := runEquivWorkload(t, mode, EngineDES, withFaults(plan))
		got := fmt.Sprintf("%v delivery=%+v unacked=%d events=%d clock=%d counters=%v",
			mode, w.DeliveryStats(), w.UnackedMessages(), w.Engine().Processed(), w.Now(), counters)
		if got != want[i] {
			t.Errorf("ledger row %d moved\n got: %s\nwant: %s", i, got, want[i])
		}
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

// TestDuplicatedLoopNackAbandonsOnce pins what Abandoned counts: messages
// given up on, not NACKs processed. The fabric can duplicate the loop NACK
// that takes a message past its bounce cap, and the clones share one
// original; only the first finds its sequence number still pending. A
// NACK for a message that was never tracked abandons nothing.
func TestDuplicatedLoopNackAbandonsOnce(t *testing.T) {
	w := testWorld(t, Config{
		Ranks: 3, Mode: AGASNM, Engine: EngineDES,
		Reliability: ReliabilityConfig{Force: true},
	})
	w.Start()
	l := w.Locality(0)
	loopNack := func(orig *netsim.Message) *netsim.Message {
		m := netsim.NewMessage()
		m.Ctl, m.Nacked, m.Owner, m.Block = netsim.CtlNackLoop, orig, -1, orig.Block
		return m
	}
	orig := &netsim.Message{Kind: kParcel, Src: 0, Dst: 1, Target: gas.New(1, 999, 0), Block: 999}
	l.relTrack(orig)
	if orig.RelSeq != 1 || w.UnackedMessages() != 1 {
		t.Fatalf("message not enrolled: seq %d, unacked %d", orig.RelSeq, w.UnackedMessages())
	}
	orig.Bounces = relBounceCap // the next bounce is one too many
	l.onNICNack(loopNack(orig))
	l.onNICNack(loopNack(orig)) // the duplicate
	l.onNICNack(loopNack(&netsim.Message{Kind: kParcel, Block: 999, Bounces: relBounceCap}))
	w.Drain()

	d := w.DeliveryStats()
	if d.HopCapNacks != 3 {
		t.Fatalf("HopCapNacks %d, want 3", d.HopCapNacks)
	}
	if d.Abandoned != 1 {
		t.Fatalf("Abandoned %d after one tracked message was given up on (NACK duplicated, plus an untracked one), want 1", d.Abandoned)
	}
	if n := w.UnackedMessages(); n != 0 {
		t.Fatalf("%d messages still held after the abandon", n)
	}
}
