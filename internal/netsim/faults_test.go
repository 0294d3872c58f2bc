package netsim

import (
	"fmt"
	"testing"

	"nmvgas/internal/gas"
)

func TestFaultInjectorDeterministic(t *testing.T) {
	// Same plan, same message sequence, same seed: byte-identical fault
	// schedule and counters.
	plan := FaultPlan{Seed: 42, Drop: 0.2, Duplicate: 0.2, DelayProb: 0.2, TableLoss: 0.1}
	run := func() ([]FaultAction, FaultStats) {
		fi := NewFaultInjector(plan)
		var acts []FaultAction
		for i := 0; i < 200; i++ {
			acts = append(acts, fi.Decide(&Message{Src: i % 4, Dst: (i + 1) % 4, Wire: 64}))
		}
		return acts, fi.Snapshot()
	}
	a1, s1 := run()
	a2, s2 := run()
	if fmt.Sprintf("%+v", a1) != fmt.Sprintf("%+v", a2) {
		t.Fatal("same seed produced different fault schedules")
	}
	if s1 != s2 {
		t.Fatalf("same seed produced different stats: %+v vs %+v", s1, s2)
	}
	if s1.Dropped == 0 || s1.Duplicated == 0 || s1.Delayed == 0 {
		t.Fatalf("200 draws at p=0.2 injected nothing: %+v", s1)
	}
	// A different seed must produce a different schedule.
	plan.Seed = 43
	fi := NewFaultInjector(plan)
	var a3 []FaultAction
	for i := 0; i < 200; i++ {
		a3 = append(a3, fi.Decide(&Message{Src: i % 4, Dst: (i + 1) % 4, Wire: 64}))
	}
	if fmt.Sprintf("%+v", a1) == fmt.Sprintf("%+v", a3) {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestFaultInjectorTargetedCtlDrop(t *testing.T) {
	fi := NewFaultInjector(FaultPlan{
		Seed:       1,
		DropNthCtl: map[uint8]int{CtlTableUpdate: 3},
	})
	var dropped []int
	for i := 1; i <= 5; i++ {
		a := fi.Decide(&Message{Ctl: CtlTableUpdate, Src: 0, Dst: 1, Wire: 32})
		if a.Drop {
			dropped = append(dropped, i)
		}
	}
	if len(dropped) != 1 || dropped[0] != 3 {
		t.Fatalf("dropped updates %v, want exactly the 3rd", dropped)
	}
	st := fi.Snapshot()
	if st.TargetedDrops != 1 || st.Dropped != 0 {
		t.Fatalf("targeted drop miscounted: %+v", st)
	}
	// Other Ctl classes keep their own count and are untouched.
	if a := fi.Decide(&Message{Ctl: CtlNack, Src: 0, Dst: 1, Wire: 32}); a.Drop {
		t.Fatal("untargeted ctl class dropped")
	}
}

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("drop=0.05, dup=0.02,reorder=1,seed=7,maxdelay=500,tableloss=0.01,dropctl=1:3")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultPlan{
		Seed: 7, Drop: 0.05, Duplicate: 0.02, Reorder: true,
		MaxDelay: 500, TableLoss: 0.01, DropNthCtl: map[uint8]int{1: 3},
	}
	if fmt.Sprintf("%+v", p) != fmt.Sprintf("%+v", want) {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	if p, err := ParseFaultPlan(""); err != nil || p.Enabled() {
		t.Fatalf("empty spec: %+v, %v", p, err)
	}
	for _, bad := range []string{"drop", "bogus=1", "drop=x", "dropctl=1", "dropctl=a:b"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Fatalf("spec %q did not error", bad)
		}
	}
}

func TestDisabledPlanHasNilInjector(t *testing.T) {
	if fi := NewFaultInjector(FaultPlan{Seed: 9}); fi != nil {
		t.Fatal("seed-only plan built an injector")
	}
	if s := (*FaultInjector)(nil).Snapshot(); s != (FaultStats{}) {
		t.Fatalf("nil injector snapshot %+v", s)
	}
}

func TestFabricDropAndDuplicate(t *testing.T) {
	// Certain drop loses everything; certain duplication doubles
	// deliveries. Both show up in the per-NIC counters.
	h := newFaultHarness(t, FaultPlan{Seed: 1, Drop: 1})
	h.fab.NIC(0).Send(&Message{Src: 0, Dst: 1, Wire: 64})
	h.eng.Run()
	if got := len(h.hostRx[1]); got != 0 {
		t.Fatalf("certain drop delivered %d messages", got)
	}
	if h.fab.NIC(0).Stats.Dropped != 1 {
		t.Fatalf("Dropped = %d", h.fab.NIC(0).Stats.Dropped)
	}

	h = newFaultHarness(t, FaultPlan{Seed: 1, Duplicate: 1})
	h.fab.NIC(0).Send(&Message{Src: 0, Dst: 1, Wire: 64})
	h.eng.Run()
	if got := len(h.hostRx[1]); got != 2 {
		t.Fatalf("certain duplication delivered %d messages, want 2", got)
	}
	if h.fab.NIC(0).Stats.Duplicated != 1 {
		t.Fatalf("Duplicated = %d", h.fab.NIC(0).Stats.Duplicated)
	}
}

func newFaultHarness(t *testing.T, plan FaultPlan) *testHarness {
	t.Helper()
	h := &testHarness{eng: NewEngine()}
	h.fab = NewFabric(h.eng, FabricConfig{
		Ranks:  2,
		Model:  DefaultModel(),
		Faults: plan,
	})
	h.resident = make([]map[gas.BlockID]bool, 2)
	h.hostRx = make([][]*Message, 2)
	h.dmaRx = make([][]*Message, 2)
	for r := 0; r < 2; r++ {
		r := r
		h.resident[r] = make(map[gas.BlockID]bool)
		nic := h.fab.NIC(r)
		nic.Resident = func(b gas.BlockID) bool { return h.resident[r][b] }
		nic.HostDeliver = func(m *Message) { h.hostRx[r] = append(h.hostRx[r], m) }
		nic.DMADeliver = func(m *Message) { h.dmaRx[r] = append(h.dmaRx[r], m) }
	}
	return h
}

func TestMaybeLoseEntry(t *testing.T) {
	tt := NewTransTable(8)
	tt.Update(1, 0)
	tt.Update(2, 1)
	tt.Update(3, 2)
	fi := NewFaultInjector(FaultPlan{Seed: 5, TableLoss: 1})
	if !fi.MaybeLoseEntry(tt) {
		t.Fatal("certain table loss did not fire")
	}
	if tt.Len() != 2 {
		t.Fatalf("table len %d after loss, want 2", tt.Len())
	}
	if fi.Snapshot().TableEntriesLost != 1 {
		t.Fatalf("TableEntriesLost = %d", fi.Snapshot().TableEntriesLost)
	}
	// Draining the table: losses stop reporting once empty.
	for tt.Len() > 0 {
		fi.MaybeLoseEntry(tt)
	}
	if fi.MaybeLoseEntry(tt) {
		t.Fatal("loss reported on an empty table")
	}
	if fi.MaybeLoseEntry(nil) {
		t.Fatal("loss reported on a nil table")
	}
}

// TestMaybeLoseEntryWithoutTableLossDrawsNothing: a plan without TableLoss
// makes the per-arrival soft-error hook a no-op that neither locks nor
// draws, so interleaving it with Decide leaves the fault schedule — and so
// every seeded DES result — exactly what it is without the calls.
func TestMaybeLoseEntryWithoutTableLossDrawsNothing(t *testing.T) {
	plan := FaultPlan{Seed: 9, Drop: 0.1, Duplicate: 0.1, DelayProb: 0.3}
	bare, mixed := NewFaultInjector(plan), NewFaultInjector(plan)
	tt := NewTransTable(8)
	tt.Update(1, 0)
	tt.Update(2, 1)
	m := &Message{}
	for i := 0; i < 2000; i++ {
		if mixed.MaybeLoseEntry(tt) {
			t.Fatal("entry lost under a plan without TableLoss")
		}
		if got, want := mixed.Decide(m), bare.Decide(m); got != want {
			t.Fatalf("decision %d: %+v with the hook interleaved, %+v without", i, got, want)
		}
	}
	if tt.Len() != 2 || mixed.Snapshot() != bare.Snapshot() {
		t.Fatalf("table len %d, stats %+v vs %+v", tt.Len(), mixed.Snapshot(), bare.Snapshot())
	}
}

// FuzzParseFaultPlan feeds the parser arbitrary specs. A spec either
// errors or yields a plan that passes Validate, and neither parsing nor
// injecting under the plan may panic. The seeds under
// testdata/fuzz/FuzzParseFaultPlan are out-of-range specs: NaN and
// out-of-[0,1] probabilities, negative delays, times and ranks, and
// kill=9:100, which the parser accepts because only Config validation
// knows the world's size.
func FuzzParseFaultPlan(f *testing.F) {
	f.Add("")
	f.Add("drop=0.05,dup=0.02,reorder=1,seed=7,delay=0.1,maxdelay=2000,tableloss=0.01,dropctl=1:3,kill=2:500000,restart=2:2000000")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaultPlan(spec)
		if err != nil {
			return
		}
		if err := p.Validate(0); err != nil {
			t.Fatalf("ParseFaultPlan(%q) returned a plan Validate rejects: %v", spec, err)
		}
		_ = p.String()
		if fi := NewFaultInjector(p); fi != nil {
			for c := uint8(0); c < 4; c++ {
				fi.Decide(&Message{Ctl: c})
			}
		}
	})
}
