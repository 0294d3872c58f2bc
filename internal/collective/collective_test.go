package collective

import (
	"sync"
	"testing"

	"nmvgas/internal/lco"
	"nmvgas/internal/runtime"
)

var modes = []runtime.Mode{runtime.PGAS, runtime.AGASSW, runtime.AGASNM}
var engines = []runtime.EngineKind{runtime.EngineDES, runtime.EngineGo}

func matrix(t *testing.T, ranks int, fn func(t *testing.T, w *runtime.World, o *Ops)) {
	t.Helper()
	for _, m := range modes {
		for _, e := range engines {
			m, e := m, e
			t.Run(m.String()+"/"+e.String(), func(t *testing.T) {
				w, err := runtime.NewWorld(runtime.Config{Ranks: ranks, Mode: m, Engine: e})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(w.Stop)
				o := New(w)
				fn(t, w, o)
			})
		}
	}
}

func TestBroadcastReachesEveryRank(t *testing.T) {
	matrix(t, 7, func(t *testing.T, w *runtime.World, o *Ops) {
		var mu sync.Mutex
		seen := make(map[int]int)
		mark := w.Register("mark", func(c *runtime.Ctx) {
			mu.Lock()
			seen[c.Rank()]++
			mu.Unlock()
			c.Continue(nil)
		})
		w.Start()
		gate := o.Broadcast(2, mark, []byte{1, 2, 3})
		w.MustWait(gate)
		mu.Lock()
		defer mu.Unlock()
		if len(seen) != 7 {
			t.Fatalf("broadcast reached %d of 7 ranks: %v", len(seen), seen)
		}
		for r, n := range seen {
			if n != 1 {
				t.Fatalf("rank %d ran %d times", r, n)
			}
		}
	})
}

func TestBroadcastPayloadDelivered(t *testing.T) {
	matrix(t, 4, func(t *testing.T, w *runtime.World, o *Ops) {
		var mu sync.Mutex
		bad := 0
		check := w.Register("check", func(c *runtime.Ctx) {
			if len(c.P.Payload) != 3 || c.P.Payload[0] != 9 {
				mu.Lock()
				bad++
				mu.Unlock()
			}
			c.Continue(nil)
		})
		w.Start()
		w.MustWait(o.Broadcast(0, check, []byte{9, 9, 9}))
		if bad != 0 {
			t.Fatalf("%d ranks saw a corrupted payload", bad)
		}
	})
}

func TestReduceSumsRankContributions(t *testing.T) {
	matrix(t, 6, func(t *testing.T, w *runtime.World, o *Ops) {
		give := w.Register("give", func(c *runtime.Ctx) {
			c.Continue(lco.EncodeI64(int64(c.Rank())))
		})
		w.Start()
		v := w.MustWait(o.Reduce(3, give, nil, lco.SumI64))
		if got := lco.DecodeI64(v); got != 0+1+2+3+4+5 {
			t.Fatalf("reduce = %d", got)
		}
	})
}

func TestReduceMax(t *testing.T) {
	matrix(t, 5, func(t *testing.T, w *runtime.World, o *Ops) {
		give := w.Register("give", func(c *runtime.Ctx) {
			c.Continue(lco.EncodeI64(int64(c.Rank() * 10)))
		})
		w.Start()
		v := w.MustWait(o.Reduce(0, give, nil, lco.MaxI64))
		if got := lco.DecodeI64(v); got != 40 {
			t.Fatalf("max = %d", got)
		}
	})
}

func TestBarrier(t *testing.T) {
	matrix(t, 8, func(t *testing.T, w *runtime.World, o *Ops) {
		w.Start()
		for i := 0; i < 3; i++ {
			w.MustWait(o.Barrier(i % 8))
		}
	})
}

func TestSingleRankCollectives(t *testing.T) {
	w, err := runtime.NewWorld(runtime.Config{Ranks: 1, Engine: runtime.EngineDES})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	o := New(w)
	give := w.Register("give", func(c *runtime.Ctx) { c.Continue(lco.EncodeI64(7)) })
	w.Start()
	if got := lco.DecodeI64(w.MustWait(o.Reduce(0, give, nil, lco.SumI64))); got != 7 {
		t.Fatalf("1-rank reduce = %d", got)
	}
	w.MustWait(o.Barrier(0))
}

func TestBroadcastScalesLogarithmically(t *testing.T) {
	// A tree broadcast's critical path grows ~log(ranks): 16 ranks must
	// cost well under 4x the 4-rank time (a flat/linear broadcast would
	// be ~4x).
	timeFor := func(ranks int) int64 {
		w, err := runtime.NewWorld(runtime.Config{Ranks: ranks, Mode: runtime.PGAS, Engine: runtime.EngineDES})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
		o := New(w)
		w.Start()
		start := w.Now()
		w.MustWait(o.Barrier(0))
		return int64(w.Now() - start)
	}
	t4, t16 := timeFor(4), timeFor(16)
	if t16 <= t4 {
		t.Fatalf("16 ranks (%d) not slower than 4 (%d)", t16, t4)
	}
	if t16 >= 3*t4 {
		t.Fatalf("broadcast looks linear: 4 ranks %dns, 16 ranks %dns", t4, t16)
	}
}
