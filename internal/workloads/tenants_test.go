package workloads

import (
	"testing"

	"nmvgas/internal/gas"
	"nmvgas/internal/loadbal"
	"nmvgas/internal/runtime"
)

func TestTenantsRunsInEveryMode(t *testing.T) {
	for _, mode := range testModes {
		w := newW(t, mode, 4)
		tn := NewTenants(w)
		w.Start()
		if err := tn.Setup(256, 8, 4, 64, 1.6, 10, 11); err != nil {
			t.Fatal(err)
		}
		n, err := tn.Run(100, 8)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if n != 400 {
			t.Fatalf("%s: %d ops, want 400", mode, n)
		}
		tn.mu.Lock()
		reads, writes := tn.reads, tn.writes
		tn.mu.Unlock()
		if reads+writes != int64(n) {
			t.Fatalf("%s: reads %d + writes %d != %d", mode, reads, writes, n)
		}
		if writes == 0 {
			t.Fatalf("%s: write mix never fired", mode)
		}
	}
}

func TestTenantsRejectsBadConfig(t *testing.T) {
	w := newW(t, runtime.PGAS, 2)
	tn := NewTenants(w)
	w.Start()
	if err := tn.Setup(256, 8, 0, 64, 0.9, 10, 1); err == nil {
		t.Fatal("skew <= 1 accepted")
	}
	if err := tn.Setup(100, 8, 0, 64, 1.5, 10, 1); err == nil {
		t.Fatal("unaligned bsize accepted")
	}
	if err := tn.Setup(256, 1, 0, 64, 1.5, 10, 1); err == nil {
		t.Fatal("single-block tenant accepted")
	}
	if _, err := tn.Run(10, 4); err == nil {
		t.Fatal("Run before Setup accepted")
	}
}

// TestTenantsHeatTracksShiftingHotspot: the heat layer must see each
// tenant's hotspot where the workload says it is — before and after a
// Shift.
func TestTenantsHeatTracksShiftingHotspot(t *testing.T) {
	w := newW(t, runtime.AGASNM, 4)
	tn := NewTenants(w)
	w.Start()
	if err := tn.Setup(256, 8, 0, 64, 1.8, 0, 3); err != nil {
		t.Fatal(err)
	}
	hottestPerTenant := func() map[int]gas.BlockID {
		heat := loadbal.HeatMap(w, tn.Layout())
		base := tn.Layout().Base.Block()
		out := map[int]gas.BlockID{}
		best := map[int]uint64{}
		for b, h := range heat {
			tenant := int(uint32(b-base) / 8)
			if h > best[tenant] {
				best[tenant] = h
				out[tenant] = b - base
			}
		}
		return out
	}
	if _, err := tn.Run(300, 8); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if got, want := hottestPerTenant()[r], gas.BlockID(tn.HotBlock(r)); got != want {
			t.Fatalf("tenant %d: hottest block %d, workload says %d", r, got, want)
		}
	}
	before := tn.HotBlock(1)
	tn.Shift()
	if tn.HotBlock(1) == before {
		t.Fatal("Shift did not move tenant 1's hotspot")
	}
	w.HeatEpoch() // fresh window for the shifted regime
	if _, err := tn.Run(300, 8); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if got, want := hottestPerTenant()[r], gas.BlockID(tn.HotBlock(r)); got != want {
			t.Fatalf("tenant %d post-shift: hottest block %d, workload says %d", r, got, want)
		}
	}
}

// TestTenantsPolicyLocalizesTraffic: the end-to-end loop in miniature —
// epochs of traffic with Policy.Step between them must migrate each
// tenant's hot block to the tenant's own rank.
func TestTenantsPolicyLocalizesTraffic(t *testing.T) {
	w := newW(t, runtime.AGASNM, 4)
	tn := NewTenants(w)
	w.Start()
	if err := tn.Setup(256, 8, 0, 64, 1.8, 0, 3); err != nil {
		t.Fatal(err)
	}
	p, err := loadbal.NewPolicy(w, loadbal.PolicyConfig{Layout: tn.Layout(), MoveBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 4; epoch++ {
		if _, err := tn.Run(300, 8); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	base := tn.Layout().Base.Block()
	for r := 0; r < 4; r++ {
		hot := base + gas.BlockID(tn.HotBlock(r))
		if _, ok := w.Locality(r).Store().Get(hot); !ok {
			t.Fatalf("tenant %d's hot block %d not migrated home (policy stats %+v)", r, hot, p.Stats())
		}
	}
	if p.Stats().Moves == 0 {
		t.Fatal("policy made no moves")
	}
}
