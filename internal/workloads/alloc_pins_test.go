//go:build !race && !msgpoison

package workloads

import (
	goruntime "runtime"
	"runtime/debug"
	"testing"

	"nmvgas/internal/runtime"
)

// Allocation pins for the pumped workloads' issue paths. Each rank builds
// its parcels in its own scratch and the action updates the word in
// place, so a GUPS update and a histogram add allocate nothing at steady
// state, on either engine (2 and 1 per op when each issue allocated its
// parcel and payload and each update its result word). The race detector
// and the msgpoison build defeat the runtime's recycling on purpose, so
// the pins only build without them.

// mallocsOver runs f once to warm up, then n times, and returns the heap
// allocations made over those n runs in total, with GOMAXPROCS at 1 and
// the collector off. The count is exact: testing.AllocsPerRun divides it
// by n in integers and would round a fallback on fewer than one run in
// one down to 0.
func mallocsOver(n int, f func()) uint64 {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	goruntime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestPumpedWorkloadAllocationPins counts every malloc over runs of
// 80 000 operations on 4 ranks. What a Run costs once (its gate, the
// priming tasks, the wait) does not grow with its length, so the pin
// allows runAllowance per run; one malloc per operation would be 80 000.
func TestPumpedWorkloadAllocationPins(t *testing.T) {
	const (
		ranks, perRank, window = 4, 20_000, 8
		runs, runAllowance     = 3, 64
	)
	for _, eng := range []runtime.EngineKind{runtime.EngineDES, runtime.EngineGo} {
		for _, wl := range []struct {
			name string
			run  func(w *runtime.World) func() (int, error)
		}{
			{"gups", func(w *runtime.World) func() (int, error) {
				g := NewGUPS(w, "gups")
				w.Start()
				if err := g.Setup(1024, 32, KeysUniform, 42); err != nil {
					t.Fatal(err)
				}
				return func() (int, error) { return g.Run(perRank, window) }
			}},
			{"histogram", func(w *runtime.World) func() (int, error) {
				h := NewHistogram(w, "hist")
				w.Start()
				if err := h.Setup(128, 32, 1.5, 3); err != nil {
					t.Fatal(err)
				}
				return func() (int, error) { return h.Run(perRank, window) }
			}},
		} {
			t.Run(wl.name+"/"+eng.String(), func(t *testing.T) {
				w, err := runtime.NewWorld(runtime.Config{Ranks: ranks, Mode: runtime.AGASNM, Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				defer w.Stop()
				run := wl.run(w)
				n := mallocsOver(runs, func() {
					if _, err := run(); err != nil {
						t.Fatal(err)
					}
				})
				ops := runs * ranks * perRank
				t.Logf("%d mallocs over %d runs of %d ops: %.4f per op", n, runs, ranks*perRank, float64(n)/float64(ops))
				if n > runs*runAllowance {
					t.Errorf("%d mallocs over %d runs of %d ops (%.2f per op), want at most %d",
						n, runs, ranks*perRank, float64(n)/float64(ops), runs*runAllowance)
				}
			})
		}
	}
}
