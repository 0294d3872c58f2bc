package runtime

import (
	"math/rand"
	"testing"

	"nmvgas/internal/gas"
)

// TestDisabledHeatHooksAllocateNothing pins the Config.Heat zero-overhead
// contract, mirroring the latency-hook pin: with heat off, the data-path
// hook is a single nil check and allocates nothing.
func TestDisabledHeatHooksAllocateNothing(t *testing.T) {
	w, err := NewWorld(Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	if w.heat != nil {
		t.Fatal("heat state allocated without Config.Heat.Enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		w.noteAccess(0, 1, 7, true)
		w.noteAccess(1, 0, 9, false)
	})
	if allocs != 0 {
		t.Fatalf("disabled heat hooks allocate %v per run, want 0", allocs)
	}
	if w.HeatEnabled() || w.HeatSampled() != 0 || w.HeatLoads() != nil {
		t.Fatal("disabled heat state leaked observations")
	}
}

// TestEnabledHeatHookAllocatesNothingSteadyState: once the per-rank
// sketch map has reached capacity population, the enabled hook itself is
// alloc-free (atomic adds plus a bounded-map sketch update).
func TestEnabledHeatHookAllocatesNothingSteadyState(t *testing.T) {
	w, err := NewWorld(Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES,
		Heat: HeatConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	// Warm the sketch to capacity so map growth is behind us.
	for i := 0; i < 8*heatTopK; i++ {
		w.noteAccess(0, 1, gas.BlockID(i), false)
	}
	i := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		w.noteAccess(0, 1, gas.BlockID(i%(2*heatTopK)), false)
	})
	if allocs != 0 {
		t.Fatalf("enabled heat hook allocates %v per run at steady state, want 0", allocs)
	}
}

// TestHeatSamplingAccuracy drives a known Zipf stream through a sampled
// tracker and checks the estimates: the per-rank load scaled by the
// sampling rate must land near the true stream length, and the hottest
// keys' scaled sketch counts must sit within a loose relative bound of
// their true frequencies (power-of-two sampling is unbiased; the bound
// absorbs sampling variance plus the space-saving overestimate).
func TestHeatSamplingAccuracy(t *testing.T) {
	const shift = 3 // sample 1 in 8
	w, err := NewWorld(Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES,
		Heat: HeatConfig{Enabled: true, SampleShift: shift}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)

	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.3, 1, 2*heatTopK-1) // overflows the sketch
	const n = 200000
	truth := map[gas.BlockID]uint64{}
	for i := 0; i < n; i++ {
		b := gas.BlockID(zipf.Uint64())
		truth[b]++
		w.noteAccess(0, 1, b, true)
	}

	loads := w.HeatLoads()
	est := loads[0] << shift
	if est < n*85/100 || est > n*115/100 {
		t.Fatalf("scaled load estimate %d for %d true accesses (>15%% off)", est, n)
	}
	if w.HeatSampled() != loads[0] {
		t.Fatalf("cumulative sampled %d != rank load %d", w.HeatSampled(), loads[0])
	}

	top := w.HeatTop(5)
	if len(top) != 5 {
		t.Fatalf("HeatTop(5) returned %d entries", len(top))
	}
	for i, s := range top {
		if !s.Read || s.Src != 1 {
			t.Fatalf("sample %d decoded wrong: %+v", i, s)
		}
		tr := truth[s.Block]
		if tr == 0 {
			t.Fatalf("hot block %d never truly accessed", s.Block)
		}
		scaled := s.Count << shift
		// The head of a 1.3-Zipf over 256 keys holds thousands of hits;
		// 1-in-8 sampling keeps relative error small there.
		if scaled < tr*70/100 || scaled > tr*130/100 {
			t.Fatalf("block %d: scaled estimate %d vs true %d (>30%% off)", s.Block, scaled, tr)
		}
	}
	// The single hottest key must be ranked first.
	var hottest gas.BlockID
	var max uint64
	for b, c := range truth {
		if c > max {
			hottest, max = b, c
		}
	}
	if top[0].Block != hottest {
		t.Fatalf("HeatTop[0]=%d, true hottest %d", top[0].Block, hottest)
	}
}

// TestHeatEndToEnd drives real traffic (parcels, puts, gets, replica
// reads) and checks that heat shows up attributed to the right blocks,
// sources, and access kinds — then that HeatEpoch resets the window.
func TestHeatEndToEnd(t *testing.T) {
	w, err := NewWorld(Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES,
		Heat: HeatConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(1) // homed at rank 1
	for i := 0; i < 10; i++ {
		w.MustWait(w.Proc(2).Put(g, []byte{1}))
		w.MustWait(w.Proc(3).Get(g, 1))
		w.MustWait(w.Proc(0).Call(g, echo, nil))
	}
	if w.HeatSampled() == 0 {
		t.Fatal("no heat sampled from live traffic")
	}
	loads := w.HeatLoads()
	if loads[1] == 0 {
		t.Fatalf("serving rank 1 recorded no load: %v", loads)
	}
	var reads, writes uint64
	for _, s := range w.HeatSamples() {
		if s.Block != g.Block() {
			continue
		}
		switch {
		case s.Read && s.Src == 3:
			reads += s.Count
		case !s.Read && (s.Src == 2 || s.Src == 0):
			writes += s.Count
		}
	}
	if reads < 10 {
		t.Fatalf("rank 3's reads undercounted: %d", reads)
	}
	if writes < 20 {
		t.Fatalf("write/exec heat undercounted: %d", writes)
	}

	epochLoads, samples := w.HeatEpoch()
	if epochLoads[1] == 0 || len(samples) == 0 {
		t.Fatal("epoch snapshot empty")
	}
	if l := w.HeatLoads(); l[1] != 0 {
		t.Fatalf("HeatEpoch did not reset loads: %v", l)
	}
	if s := w.HeatSamples(); len(s) != 0 {
		t.Fatalf("HeatEpoch did not reset sketches: %d entries left", len(s))
	}
	if w.HeatSampled() == 0 {
		t.Fatal("cumulative sample count must survive epoch reset")
	}
}
