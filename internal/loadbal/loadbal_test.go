package loadbal

import (
	"math/rand"
	"testing"

	"nmvgas/internal/gas"
	"nmvgas/internal/runtime"
)

func newWorld(t *testing.T, mode runtime.Mode) *runtime.World {
	t.Helper()
	w, err := runtime.NewWorld(runtime.Config{Ranks: 4, Mode: mode, Engine: runtime.EngineDES,
		Heat: runtime.HeatConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	return w
}

func TestHeatMapCountsAccesses(t *testing.T) {
	w := newWorld(t, runtime.AGASNM)
	touch := w.Register("touch", func(c *runtime.Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		w.MustWait(w.Proc(0).Call(lay.BlockAt(1), touch, nil))
	}
	w.MustWait(w.Proc(0).Put(lay.BlockAt(2), []byte{1}))

	heat := HeatMap(w, lay)
	if got := heat[lay.BlockAt(1).Block()]; got != 6 {
		t.Fatalf("heat = %d", got)
	}
	if got := heat[lay.BlockAt(2).Block()]; got != 1 {
		t.Fatalf("put heat = %d", got)
	}
	loads := w.HeatLoads()
	if loads[lay.HomeOf(1)] < 6 {
		t.Fatalf("rank load = %d", loads[lay.HomeOf(1)])
	}
	w.HeatEpoch()
	if got := HeatMap(w, lay); len(got) != 0 {
		t.Fatalf("epoch reset did not clear heat: %v", got)
	}
}

func TestPlanSpreadsHotBlocks(t *testing.T) {
	w := newWorld(t, runtime.AGASNM)
	w.Start()
	// All 8 blocks on rank 0; make them uniformly hot: a greedy plan
	// must spread them 2-2-2-2.
	lay, err := w.AllocLocal(0, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	heat := make(map[gas.BlockID]uint64)
	for d := uint32(0); d < 8; d++ {
		heat[lay.BlockAt(d).Block()] = 100
	}
	moves := Plan(w, lay, heat)
	if len(moves) != 6 {
		t.Fatalf("planned %d moves, want 6 (keep 2 of 8 local)", len(moves))
	}
	dest := map[int]int{0: 2}
	for _, m := range moves {
		dest[m.To]++
	}
	for r := 0; r < 4; r++ {
		if dest[r] != 2 {
			t.Fatalf("rank %d assigned %d blocks: %v", r, dest[r], dest)
		}
	}
}

func TestPlanLeavesColdLayoutAlone(t *testing.T) {
	w := newWorld(t, runtime.AGASNM)
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	moves := Plan(w, lay, map[gas.BlockID]uint64{})
	if len(moves) != 0 {
		t.Fatalf("zero-heat plan moved %d blocks", len(moves))
	}
}

// TestPlanMatchesLinearReference pins the heap-based Plan to the original
// linear least-loaded scan on randomized heat: same moves, same order.
func TestPlanMatchesLinearReference(t *testing.T) {
	w := newWorld(t, runtime.AGASNM)
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		heat := make(map[gas.BlockID]uint64)
		for d := uint32(0); d < lay.NBlocks; d++ {
			if rng.Intn(3) > 0 {
				heat[lay.BlockAt(d).Block()] = uint64(rng.Intn(1000))
			}
		}
		got := Plan(w, lay, heat)
		want := planLinear(w, lay, heat)
		if len(got) != len(want) {
			t.Fatalf("trial %d: heap plan %d moves, linear %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d move %d: heap %+v, linear %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestRebalanceEndToEnd(t *testing.T) {
	for _, mode := range []runtime.Mode{runtime.AGASSW, runtime.AGASNM} {
		w := newWorld(t, mode)
		bump := w.Register("bump", func(c *runtime.Ctx) {
			d := c.Local(c.P.Target)
			d[0]++
			c.Continue(nil)
		})
		w.Start()
		lay, err := w.AllocLocal(0, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		for d := uint32(0); d < 8; d++ {
			for i := 0; i < 10; i++ {
				w.MustWait(w.Proc(1).Call(lay.BlockAt(d), bump, nil))
			}
		}
		moved, err := Rebalance(w, 0, lay)
		if err != nil {
			t.Fatal(err)
		}
		if moved == 0 {
			t.Fatal("rebalance moved nothing despite full imbalance")
		}
		// Data still correct everywhere after moving.
		for d := uint32(0); d < 8; d++ {
			got := w.MustWait(w.Proc(2).Get(lay.BlockAt(d), 1))
			if got[0] != 10 {
				t.Fatalf("%s: block %d data = %d after rebalance", mode, d, got[0])
			}
		}
		// Residency matches the plan's effect: no rank holds more than
		// 2 of the data blocks plus its infrastructure block.
		base := lay.Base.Block()
		for r := 0; r < 4; r++ {
			n := 0
			for d := uint32(0); d < 8; d++ {
				if _, ok := w.Locality(r).Store().Get(base + gas.BlockID(d)); ok {
					n++
				}
			}
			if n > 2 {
				t.Fatalf("%s: rank %d holds %d blocks after rebalance", mode, r, n)
			}
		}
	}
}

// TestRebalanceWithoutHeatErrors: Rebalance against a world that never
// enabled heat tracking must fail loudly, not silently plan nothing.
func TestRebalanceWithoutHeatErrors(t *testing.T) {
	w, err := runtime.NewWorld(runtime.Config{Ranks: 2, Mode: runtime.AGASNM, Engine: runtime.EngineDES})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rebalance(w, 0, lay); err == nil {
		t.Fatal("rebalance without Config.Heat succeeded")
	}
}

// TestApplyWaitCountsOnlyRealMoves pins the Rebalance fix: a refused
// migration (PGAS pins every block) must not be counted as moved, and
// must surface as an error.
func TestApplyWaitCountsOnlyRealMoves(t *testing.T) {
	w, err := runtime.NewWorld(runtime.Config{Ranks: 4, Mode: runtime.PGAS, Engine: runtime.EngineDES})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	w.Start()
	lay, err := w.AllocLocal(0, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	moves := []Move{
		{Block: lay.BlockAt(0), To: 1},
		{Block: lay.BlockAt(1), To: 2},
	}
	moved, err := ApplyWait(w, 0, moves)
	if moved != 0 {
		t.Fatalf("PGAS refused both moves but %d reported moved", moved)
	}
	if err == nil {
		t.Fatal("refused moves surfaced no error")
	}
}

func TestConsolidate(t *testing.T) {
	w := newWorld(t, runtime.AGASNM)
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := Consolidate(w, 0, lay, 3); err != nil {
		t.Fatal(err)
	}
	for d := uint32(0); d < 8; d++ {
		if _, ok := w.Locality(3).Store().Get(lay.BlockAt(d).Block()); !ok {
			t.Fatalf("block %d not consolidated to rank 3", d)
		}
	}
}

func TestImbalanceMetric(t *testing.T) {
	if Imbalance(nil) != 1 {
		t.Fatal("empty imbalance")
	}
	if Imbalance([]uint64{0, 0}) != 1 {
		t.Fatal("zero imbalance")
	}
	if got := Imbalance([]uint64{10, 10, 10, 10}); got != 1 {
		t.Fatalf("even imbalance = %v", got)
	}
	if got := Imbalance([]uint64{40, 0, 0, 0}); got != 4 {
		t.Fatalf("skewed imbalance = %v", got)
	}
}

// planLinear is the original O(blocks × ranks) least-loaded scan, kept
// unexported as the reference implementation for Plan's equivalence test
// and microbench.
func planLinear(w *runtime.World, lay gas.Layout, heat map[gas.BlockID]uint64) []Move {
	blocks := blocksByHeat(w, lay, heat)
	ranks := w.Ranks()
	loads := make([]uint64, ranks)
	var moves []Move
	for _, bl := range blocks {
		// Least-loaded rank, ties to the current owner then lowest rank.
		best := bl.owner
		for r := 0; r < ranks; r++ {
			if loads[r] < loads[best] {
				best = r
			}
		}
		loads[best] += bl.heat
		if best != bl.owner {
			moves = append(moves, Move{Block: bl.gva, To: best})
		}
	}
	return moves
}
