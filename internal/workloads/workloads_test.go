package workloads

import (
	"math"
	"testing"

	"nmvgas/internal/gas"

	"nmvgas/internal/collective"
	"nmvgas/internal/loadbal"
	"nmvgas/internal/netsim"
	"nmvgas/internal/runtime"
)

var testModes = []runtime.Mode{runtime.PGAS, runtime.AGASSW, runtime.AGASNM}

func newW(t *testing.T, mode runtime.Mode, ranks int) *runtime.World {
	t.Helper()
	w, err := runtime.NewWorld(runtime.Config{Ranks: ranks, Mode: mode, Engine: runtime.EngineDES,
		Heat: runtime.HeatConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	return w
}

func TestGUPSChecksumModeIndependent(t *testing.T) {
	// Translation must never change semantics: identical seeds must give
	// identical table contents in every mode.
	var sums []uint64
	for _, mode := range testModes {
		w := newW(t, mode, 4)
		g := NewGUPS(w, "gups")
		w.Start()
		if err := g.Setup(256, 16, KeysUniform, 42); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Run(100, 8); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, g.Checksum())
	}
	if sums[0] == 0 {
		t.Fatal("checksum zero: no updates landed")
	}
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Fatalf("checksums diverge across modes: %x %x %x", sums[0], sums[1], sums[2])
	}
}

func TestGUPSZipfSkewsHeat(t *testing.T) {
	w := newW(t, runtime.AGASNM, 4)
	g := NewGUPS(w, "gups")
	w.Start()
	if err := g.Setup(256, 16, KeysZipf, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(200, 8); err != nil {
		t.Fatal(err)
	}
	heat := loadbal.HeatMap(w, g.Layout())
	var hottest, total uint64
	for _, h := range heat {
		total += h
		if h > hottest {
			hottest = h
		}
	}
	if total == 0 {
		t.Fatal("no heat recorded")
	}
	// Zipf(1.2) concentrates: the hottest of 16 blocks must be well over
	// the uniform share (1/16).
	if float64(hottest)/float64(total) < 0.2 {
		t.Fatalf("zipf heat not skewed: hottest %d of %d", hottest, total)
	}
}

func TestGUPSRejectsBadConfig(t *testing.T) {
	w := newW(t, runtime.PGAS, 2)
	g := NewGUPS(w, "gups")
	w.Start()
	if err := g.Setup(100, 4, KeysUniform, 1); err == nil {
		t.Fatal("unaligned bsize accepted")
	}
	if err := g.Setup(256, 4, KeysUniform, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0, 4); err == nil {
		t.Fatal("zero updates accepted")
	}
}

func TestChaseLandsWhereExpected(t *testing.T) {
	for _, mode := range testModes {
		w := newW(t, mode, 4)
		c := NewChase(w, "chase")
		w.Start()
		if err := c.Setup(64, 11); err != nil {
			t.Fatal(err)
		}
		for _, hops := range []uint64{0, 1, 7, 64, 130} {
			got, err := c.Run(0, hops)
			if err != nil {
				t.Fatal(err)
			}
			if want := c.Expected(hops); got != want {
				t.Fatalf("%s: %d hops landed at %v, want %v", mode, hops, got, want)
			}
		}
	}
}

func TestChaseFasterAfterConsolidation(t *testing.T) {
	// The AGAS payoff: consolidating the ring onto one locality turns
	// remote hops into local dispatches.
	w := newW(t, runtime.AGASNM, 4)
	c := NewChase(w, "chase")
	w.Start()
	if err := c.Setup(32, 3); err != nil {
		t.Fatal(err)
	}
	const hops = 128
	start := w.Now()
	if _, err := c.Run(0, hops); err != nil {
		t.Fatal(err)
	}
	remote := w.Now() - start

	if err := loadbal.Consolidate(w, 0, c.Layout(), 2); err != nil {
		t.Fatal(err)
	}
	start = w.Now()
	if _, err := c.Run(0, hops); err != nil {
		t.Fatal(err)
	}
	local := w.Now() - start
	if local*2 >= remote {
		t.Fatalf("consolidation did not help: remote %v, local %v", remote, local)
	}
}

func TestGraphGenerator(t *testing.T) {
	g := GenGraph(500, 8, 123)
	if g.N != 500 {
		t.Fatalf("N = %d", g.N)
	}
	if g.Edges() != 500*8 {
		t.Fatalf("edges = %d, want %d", g.Edges(), 500*8)
	}
	for v := uint32(0); v < g.N; v++ {
		for _, u := range g.Out(v) {
			if u >= g.N {
				t.Fatalf("edge target %d out of range", u)
			}
		}
	}
	// Determinism.
	g2 := GenGraph(500, 8, 123)
	for i, e := range g.Targets {
		if g2.Targets[i] != e {
			t.Fatal("graph generation not deterministic")
		}
	}
	// Skew: max degree far above the average.
	var maxDeg uint32
	for v := uint32(0); v < g.N; v++ {
		if d := g.Offsets[v+1] - g.Offsets[v]; d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 16 {
		t.Fatalf("degree distribution not skewed: max %d", maxDeg)
	}
}

func TestSeqBFS(t *testing.T) {
	// A tiny hand-checked graph: 0→1→2, 0→2, 3 isolated.
	g := &Graph{N: 4, Offsets: []uint32{0, 2, 3, 3, 3}, Targets: []uint32{1, 2, 2}}
	dist := g.SeqBFS(0)
	want := []uint32{0, 1, 1, ^uint32(0)}
	for v, d := range want {
		if dist[v] != d {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], d)
		}
	}
}

func TestBFSMatchesSequential(t *testing.T) {
	for _, mode := range testModes {
		w := newW(t, mode, 4)
		ops := collective.New(w)
		b := NewBFS(w, ops, "bfs")
		w.Start()
		g := GenGraph(200, 4, 9)
		if err := b.Setup(g, 16, gas.DistCyclic); err != nil {
			t.Fatal(err)
		}
		edges, levels, err := b.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if edges == 0 || levels == 0 {
			t.Fatalf("%s: degenerate run: %d edges, %d levels", mode, edges, levels)
		}
		ref := g.SeqBFS(0)
		for v := uint32(0); v < g.N; v++ {
			if got := b.Dist(v); got != ref[v] {
				t.Fatalf("%s: dist[%d] = %d, want %d", mode, v, got, ref[v])
			}
		}
	}
}

func TestBFSAfterRebalanceStillCorrect(t *testing.T) {
	w := newW(t, runtime.AGASNM, 4)
	ops := collective.New(w)
	b := NewBFS(w, ops, "bfs")
	w.Start()
	g := GenGraph(200, 4, 10)
	if err := b.Setup(g, 16, gas.DistCyclic); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, err := loadbal.Rebalance(w, 0, b.Layout()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Run(0); err != nil {
		t.Fatal(err)
	}
	ref := g.SeqBFS(0)
	for v := uint32(0); v < g.N; v++ {
		if got := b.Dist(v); got != ref[v] {
			t.Fatalf("dist[%d] = %d, want %d after rebalance", v, got, ref[v])
		}
	}
}

func TestStencilConservesHeatAndSpreads(t *testing.T) {
	for _, mode := range testModes {
		w := newW(t, mode, 4)
		s := NewStencil(w, "st")
		w.Start()
		if err := s.Setup(16, 8, nil, 10*netsim.Nanosecond); err != nil {
			t.Fatal(err)
		}
		if math.Abs(s.Sum()-1.0) > 1e-9 {
			t.Fatalf("initial heat = %v", s.Sum())
		}
		mid := s.Cells() / 2
		before := s.Cell(mid)
		if err := s.Run(10); err != nil {
			t.Fatal(err)
		}
		if math.Abs(s.Sum()-1.0) > 1e-6 {
			t.Fatalf("%s: heat not conserved: %v", mode, s.Sum())
		}
		if s.Cell(mid) >= before {
			t.Fatalf("%s: spike did not diffuse", mode)
		}
		if s.Cell(mid-3) == 0 {
			t.Fatalf("%s: heat did not spread", mode)
		}
	}
}

func TestStencilCrossesBlockBoundaries(t *testing.T) {
	w := newW(t, runtime.AGASNM, 4)
	s := NewStencil(w, "st")
	w.Start()
	if err := s.Setup(4, 8, nil, 0); err != nil {
		t.Fatal(err)
	}
	// Spike at cell 16 (block 4); after enough steps heat must appear in
	// block 3 (cell 15) and block 5 (cell 20).
	if err := s.Run(8); err != nil {
		t.Fatal(err)
	}
	if s.Cell(15) == 0 || s.Cell(20) == 0 {
		t.Fatalf("heat stuck at block boundary: c15=%v c20=%v", s.Cell(15), s.Cell(20))
	}
}

func TestStencilAdaptiveBeatsStaticUnderImbalance(t *testing.T) {
	run := func(adapt bool) netsim.VTime {
		w := newW(t, runtime.AGASNM, 4)
		s := NewStencil(w, "st")
		w.Start()
		// Rank 0 is 8x slower than the rest.
		slow := []float64{8, 1, 1, 1}
		if err := s.Setup(64, 16, slow, 50*netsim.Nanosecond); err != nil {
			t.Fatal(err)
		}
		if adapt {
			if err := s.AdaptPartition(0); err != nil {
				t.Fatal(err)
			}
		}
		start := w.Now()
		if err := s.Run(5); err != nil {
			t.Fatal(err)
		}
		return w.Now() - start
	}
	static, adaptive := run(false), run(true)
	if adaptive >= static {
		t.Fatalf("adaptive (%v) not faster than static (%v)", adaptive, static)
	}
}

func TestStencilNumericsUnaffectedByAdaptation(t *testing.T) {
	run := func(adapt bool) []float64 {
		w := newW(t, runtime.AGASNM, 4)
		s := NewStencil(w, "st")
		w.Start()
		if err := s.Setup(8, 8, []float64{4, 1, 1, 1}, 0); err != nil {
			t.Fatal(err)
		}
		if adapt {
			if err := s.AdaptPartition(0); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(6); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, s.Cells())
		for i := range out {
			out[i] = s.Cell(uint64(i))
		}
		return out
	}
	a, b := run(false), run(true)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("cell %d diverges: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestHistogramTotalExact(t *testing.T) {
	for _, mode := range testModes {
		w := newW(t, mode, 4)
		h := NewHistogram(w, "hist")
		w.Start()
		if err := h.Setup(32, 8, 1.5, 3); err != nil {
			t.Fatal(err)
		}
		n, err := h.Run(150, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Total(); got != uint64(n) {
			t.Fatalf("%s: total = %d, want %d", mode, got, n)
		}
	}
}

func TestHistogramRejectsBadSkew(t *testing.T) {
	w := newW(t, runtime.PGAS, 2)
	h := NewHistogram(w, "hist")
	w.Start()
	if err := h.Setup(8, 4, 1.0, 1); err == nil {
		t.Fatal("skew 1.0 accepted")
	}
}

func TestPumpValidation(t *testing.T) {
	w := newW(t, runtime.PGAS, 2)
	p := NewPump(w, "p")
	w.Start()
	if _, err := p.Run(10, 4); err == nil {
		t.Fatal("pump without Issue accepted")
	}
	p.Issue = func(rank, seq int) {}
	if _, err := p.Run(0, 4); err == nil {
		t.Fatal("zero perRank accepted")
	}
}

func TestReadHotSkewAndMix(t *testing.T) {
	// The Zipf stream must concentrate on low-numbered blocks, the write
	// mix must follow writeEvery, and replication must not change what
	// the workload observes (same op counts, all completions fire).
	for _, mode := range testModes {
		w := newW(t, mode, 4)
		rh := NewReadHot(w)
		w.Start()
		if err := rh.Setup(256, 8, 64, 1.6, 10, 7); err != nil {
			t.Fatal(err)
		}
		if err := w.ReplicateLive(rh.Layout(), 2); err != nil {
			t.Fatal(err)
		}
		total, err := rh.Run(100, 4)
		if err != nil {
			t.Fatal(err)
		}
		if total != 400 {
			t.Fatalf("mode %v: total ops %d, want 400", mode, total)
		}
		rh.mu.Lock()
		reads, writes := rh.reads, rh.writes
		rh.mu.Unlock()
		if reads+writes != 400 {
			t.Fatalf("mode %v: reads %d + writes %d != 400", mode, reads, writes)
		}
		if writes != 40 {
			t.Fatalf("mode %v: writes %d, want every 10th of 400", mode, writes)
		}
		if w.Stats().ReplicaReads == 0 {
			t.Fatalf("mode %v: skewed reads never hit a replica", mode)
		}
	}
}

func TestReadHotRejectsBadConfig(t *testing.T) {
	w := newW(t, runtime.PGAS, 2)
	rh := NewReadHot(w)
	w.Start()
	for _, bad := range []func() error{
		func() error { return rh.Setup(256, 8, 64, 0.9, 10, 1) },  // skew <= 1
		func() error { return rh.Setup(256, 1, 64, 1.5, 10, 1) },  // too few blocks
		func() error { return rh.Setup(250, 8, 64, 1.5, 10, 1) },  // unaligned block
		func() error { return rh.Setup(256, 8, 0, 1.5, 10, 1) },   // zero read size
		func() error { return rh.Setup(256, 8, 512, 1.5, 10, 1) }, // read > block
	} {
		if err := bad(); err == nil {
			t.Fatal("bad config accepted")
		}
	}
	if _, err := rh.Run(10, 2); err == nil {
		t.Fatal("Run before a successful Setup accepted")
	}
}
