package workloads

import (
	"testing"

	"nmvgas/internal/gas"
	"nmvgas/internal/loadbal"
	"nmvgas/internal/runtime"
)

func TestSeqSSSPHandChecked(t *testing.T) {
	// 0 -1-> 1 -1-> 2, 0 -5-> 2: shortest to 2 is 2 via 1.
	g := &Graph{
		N:       3,
		Offsets: []uint32{0, 2, 3, 3},
		Targets: []uint32{1, 2, 2},
		Weights: []uint32{1, 5, 1},
	}
	dist := g.SeqSSSP(0)
	if dist[0] != 0 || dist[1] != 1 || dist[2] != 2 {
		t.Fatalf("dist = %v", dist)
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	for _, mode := range testModes {
		for _, eng := range []runtime.EngineKind{runtime.EngineDES, runtime.EngineGo} {
			w, err := runtime.NewWorld(runtime.Config{Ranks: 4, Mode: mode, Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			s := NewSSSP(w, "sssp")
			w.Start()
			g := GenGraph(150, 4, 21)
			if err := s.Setup(g, 16, gas.DistCyclic); err != nil {
				t.Fatal(err)
			}
			reached, err := s.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			if reached == 0 {
				t.Fatal("nothing reached")
			}
			ref := g.SeqSSSP(0)
			for v := uint32(0); v < g.N; v++ {
				if got := s.Dist(v); got != ref[v] {
					t.Fatalf("%s/%s: dist[%d] = %d, want %d", mode, eng, v, got, ref[v])
				}
			}
			w.Stop()
		}
	}
}

func TestSSSPRepeatableAndRerunnable(t *testing.T) {
	w, err := runtime.NewWorld(runtime.Config{Ranks: 3, Mode: runtime.AGASNM, Engine: runtime.EngineDES})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	s := NewSSSP(w, "sssp")
	w.Start()
	g := GenGraph(100, 4, 5)
	if err := s.Setup(g, 16, gas.DistCyclic); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	first := make([]uint32, g.N)
	for v := uint32(0); v < g.N; v++ {
		first[v] = s.Dist(v)
	}
	// Run again from a different root, then from 0 again: reset must be
	// complete.
	if _, err := s.Run(7); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < g.N; v++ {
		if s.Dist(v) != first[v] {
			t.Fatalf("rerun diverged at %d", v)
		}
	}
}

func TestSSSPAfterConsolidationStillCorrect(t *testing.T) {
	w, err := runtime.NewWorld(runtime.Config{Ranks: 4, Mode: runtime.AGASNM, Engine: runtime.EngineDES})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	s := NewSSSP(w, "sssp")
	w.Start()
	g := GenGraph(120, 4, 13)
	if err := s.Setup(g, 16, gas.DistCyclic); err != nil {
		t.Fatal(err)
	}
	if err := loadbal.Consolidate(w, 0, s.lay, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	ref := g.SeqSSSP(0)
	for v := uint32(0); v < g.N; v++ {
		if s.Dist(v) != ref[v] {
			t.Fatalf("dist[%d] wrong after consolidation", v)
		}
	}
}

func TestSSSPRejectsUnweightedGraph(t *testing.T) {
	w, err := runtime.NewWorld(runtime.Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	s := NewSSSP(w, "sssp")
	w.Start()
	g := &Graph{N: 2, Offsets: []uint32{0, 1, 1}, Targets: []uint32{1}}
	if err := s.Setup(g, 4, gas.DistCyclic); err == nil {
		t.Fatal("unweighted graph accepted")
	}
}
