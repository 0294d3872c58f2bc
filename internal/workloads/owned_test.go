package workloads

import (
	"math"
	"testing"

	"nmvgas/internal/runtime"
)

// TestWorkloadsRankOwnedState runs the workloads whose state is per rank
// where ranks run at once: on the goroutine engine, and on the DES engine
// at 4 shards, whose workers run different ranks' events in parallel.
// Every key stream, window counter, scratch parcel, read/write count and
// halo is touched only by its rank, and the driver reads them after the
// run's gate fired, so under -race a piece of workload state shared by
// ranks is a reported race. Each workload also checks its answer: GUPS
// against a classic DES run (XOR commutes, so order does not matter), the
// histogram's bins against the adds, the one-sided mixes against their
// counts, and the stencil's heat across a repartition.
func TestWorkloadsRankOwnedState(t *testing.T) {
	const ranks = 8
	newWorld := func(t *testing.T, cfg runtime.Config) *runtime.World {
		cfg.Ranks, cfg.Mode = ranks, runtime.AGASNM
		w, err := runtime.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		return w
	}
	gupsRun := func(t *testing.T, g *GUPS) uint64 {
		if err := g.Setup(256, 16, KeysUniform, 42); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Run(200, 8); err != nil {
			t.Fatal(err)
		}
		return g.Checksum()
	}
	classic := newWorld(t, runtime.Config{Engine: runtime.EngineDES})
	g := NewGUPS(classic, "gups")
	classic.Start()
	want := gupsRun(t, g)

	for _, tc := range []struct {
		name string
		cfg  runtime.Config
	}{
		{"go", runtime.Config{Engine: runtime.EngineGo}},
		{"des-shards4", runtime.Config{Engine: runtime.EngineDES, Shards: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, tc.cfg)
			g := NewGUPS(w, "gups")
			h := NewHistogram(w, "hist")
			s := NewStencil(w, "stencil")
			w.Start()
			if got := gupsRun(t, g); got != want {
				t.Errorf("GUPS checksum %x, classic DES %x", got, want)
			}

			if err := h.Setup(32, 16, 1.5, 3); err != nil {
				t.Fatal(err)
			}
			if n, err := h.Run(200, 8); err != nil || h.Total() != uint64(n) {
				t.Errorf("histogram: %d adds, bins total %d, err %v", n, h.Total(), err)
			}

			// ReadHot and Tenants register no action, so they are built
			// after Start.
			rh := NewReadHot(w)
			if err := rh.Setup(256, 16, 64, 1.6, 10, 7); err != nil {
				t.Fatal(err)
			}
			if n, err := rh.Run(100, 4); err != nil {
				t.Fatal(err)
			} else if reads, writes := rh.counts(); reads+writes != int64(n) || writes != int64(n/10) {
				t.Errorf("readhot: %d ops, %d reads, %d writes", n, reads, writes)
			}
			rh.SetWriteEvery(0)
			if n, err := rh.Run(100, 4); err != nil || rh.Reads() != int64(n) {
				t.Errorf("readhot without writes: %d ops, %d reads, err %v", n, rh.Reads(), err)
			}

			tn := NewTenants(w)
			if err := tn.Setup(256, 8, 8, 64, 1.5, 20, 11); err != nil {
				t.Fatal(err)
			}
			for phase := 0; phase < 2; phase++ {
				n, err := tn.Run(100, 4)
				if err != nil {
					t.Fatal(err)
				}
				if reads, writes := tn.counts(); reads+writes != int64(n) || writes == 0 {
					t.Errorf("tenants phase %d: %d ops, %d reads, %d writes", phase, n, reads, writes)
				}
				tn.Shift()
			}

			slow := make([]float64, ranks)
			for r := range slow {
				slow[r] = 1
			}
			slow[0] = 4
			if err := s.Setup(16, 16, slow, 10); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(3); err != nil {
				t.Fatal(err)
			}
			if err := s.AdaptPartition(1); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(3); err != nil {
				t.Fatal(err)
			}
			if sum := s.Sum(); math.Abs(sum-1) > 1e-9 {
				t.Errorf("stencil heat %v after a repartition, want 1", sum)
			}
		})
	}
}
