package runtime

import (
	"testing"

	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

func coalCfg(maxParcels int) Config {
	return Config{
		Ranks: 4, Mode: AGASNM, Engine: EngineDES,
		Coalesce: CoalesceConfig{MaxParcels: maxParcels},
	}
}

func TestCoalescingReducesMessagesAndTime(t *testing.T) {
	run := func(maxParcels int) (msgs uint64, bytes uint64, elapsed netsim.VTime) {
		cfg := coalCfg(maxParcels)
		w := testWorld(t, cfg)
		bump := w.Register("bump", func(c *Ctx) { c.Continue(nil) })
		w.Start()
		lay, err := w.AllocLocal(1, 256, 4)
		if err != nil {
			t.Fatal(err)
		}
		const n = 64
		gate := w.NewAndGate(0, n)
		start := w.Now()
		w.Proc(0).Run(func() {
			for i := 0; i < n; i++ {
				w.Locality(0).SendParcel(&parcel.Parcel{
					Action: bump, Target: lay.BlockAt(uint32(i % 4)),
					CAction: ALCOSet, CTarget: gate.G,
				})
			}
		})
		w.MustWait(gate)
		st := w.Fabric().TotalStats()
		return st.Sent, st.BytesTx, w.Now() - start
	}
	plainMsgs, plainBytes, plainTime := run(1)
	coalMsgs, coalBytes, coalTime := run(16)
	if coalMsgs >= plainMsgs/4 {
		t.Fatalf("coalescing barely reduced messages: %d vs %d", coalMsgs, plainMsgs)
	}
	// Framing adds a few bytes per parcel; the win is per-message costs,
	// so bytes may rise slightly but never substantially.
	if float64(coalBytes) > 1.15*float64(plainBytes) {
		t.Fatalf("coalescing blew up bytes: %d vs %d", coalBytes, plainBytes)
	}
	if coalTime >= plainTime {
		t.Fatalf("coalescing did not reduce makespan: %v vs %v", coalTime, plainTime)
	}
}

func TestCoalescingSemanticsIntact(t *testing.T) {
	// Same program with and without coalescing must produce identical
	// memory.
	run := func(maxParcels int) byte {
		cfg := coalCfg(maxParcels)
		w := testWorld(t, cfg)
		incr := w.Register("incr", func(c *Ctx) {
			d := c.Local(c.P.Target)
			d[0]++
			c.Continue(nil)
		})
		w.Start()
		lay, err := w.AllocLocal(2, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		const n = 50
		gate := w.NewAndGate(0, n)
		w.Proc(0).Run(func() {
			for i := 0; i < n; i++ {
				w.Locality(0).SendParcel(&parcel.Parcel{
					Action: incr, Target: lay.BlockAt(0),
					CAction: ALCOSet, CTarget: gate.G,
				})
			}
		})
		w.MustWait(gate)
		return w.MustWait(w.Proc(1).Get(lay.BlockAt(0), 1))[0]
	}
	if a, b := run(1), run(8); a != b || a != 50 {
		t.Fatalf("coalescing changed semantics: %d vs %d", a, b)
	}
}

func TestCoalescedBatchReroutesAfterMigration(t *testing.T) {
	// Parcels batched toward the home must chase a migrated block from
	// the batch target.
	for _, mode := range agasModes {
		cfg := coalCfg(8)
		cfg.Mode = mode
		w := testWorld(t, cfg)
		incr := w.Register("incr", func(c *Ctx) {
			d := c.Local(c.P.Target)
			d[0]++
			c.Continue(nil)
		})
		w.Start()
		lay, err := w.AllocLocal(1, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(0)
		w.MustWait(w.Proc(0).Migrate(g, 3))
		const n = 16
		gate := w.NewAndGate(0, n)
		w.Proc(2).Run(func() {
			for i := 0; i < n; i++ {
				w.Locality(2).SendParcel(&parcel.Parcel{
					Action: incr, Target: g,
					CAction: ALCOSet, CTarget: gate.G,
				})
			}
		})
		w.MustWait(gate)
		got := w.MustWait(w.Proc(0).Get(g, 1))
		if got[0] != n {
			t.Fatalf("%s: counter %d, want %d", mode, got[0], n)
		}
	}
}

func TestCoalesceDelayFlushesLoneParcel(t *testing.T) {
	w := testWorld(t, coalCfg(1000)) // threshold unreachable; only the delay flushes
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	fut := w.Proc(0).Call(lay.BlockAt(0), echo, nil)
	v, err := w.Wait(fut)
	if err != nil {
		t.Fatalf("lone parcel never flushed: %v", err)
	}
	_ = v
	// Request and reply each wait out the delay.
	if now := w.Now(); now < 2*coalMaxDelay {
		t.Fatalf("flush happened before the delay: %v", now)
	}
}

func TestCoalesceFlushAll(t *testing.T) {
	w := testWorld(t, coalCfg(1000))
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	// flushed reports whether rank r's buffer for dst has been taken; the
	// delay timer would take it only coalMaxDelay after the add.
	flushed := func(r, dst int) func() bool {
		return func() bool {
			b := &w.Locality(r).coal.bufs[dst]
			b.mu.Lock()
			defer b.mu.Unlock()
			return b.gen > 0
		}
	}
	fut := w.Proc(0).Call(lay.BlockAt(0), echo, nil)
	// Flush the request out of rank 0...
	w.Proc(0).Run(func() { w.Locality(0).FlushAll() })
	if !w.Engine().RunUntil(flushed(0, 1)) || w.Now() >= coalMaxDelay {
		t.Fatalf("FlushAll did not release the request (now %v)", w.Now())
	}
	if !w.Engine().RunUntil(func() bool { return w.Locality(1).Stats.ParcelsRun.Load() > 0 }) {
		t.Fatal("request never ran")
	}
	// ...then the buffered reply out of rank 1.
	ran := w.Now()
	w.Proc(1).Run(func() { w.Locality(1).FlushAll() })
	if !w.Engine().RunUntil(flushed(1, 0)) || w.Now() >= ran+coalMaxDelay {
		t.Fatalf("FlushAll did not release the reply (now %v, request ran at %v)", w.Now(), ran)
	}
	if _, err := w.Wait(fut); err != nil {
		t.Fatalf("reply never arrived: %v", err)
	}
}

func TestCoalesceMixedDestinations(t *testing.T) {
	cfg := coalCfg(4)
	w := testWorld(t, cfg)
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 8) // blocks across all ranks
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	gate := w.NewAndGate(0, n)
	w.Proc(0).Run(func() {
		for i := 0; i < n; i++ {
			w.Locality(0).SendParcel(&parcel.Parcel{
				Action: echo, Target: lay.BlockAt(uint32(i % 8)),
				CAction: ALCOSet, CTarget: gate.G,
			})
		}
	})
	w.MustWait(gate)
}

func TestCoalesceGoEngine(t *testing.T) {
	cfg := coalCfg(4)
	cfg.Engine = EngineGo
	w := testWorld(t, cfg)
	incr := w.Register("incr", func(c *Ctx) {
		d := c.Local(c.P.Target)
		d[0]++
		c.Continue(nil)
	})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	gate := w.NewAndGate(0, n)
	w.Proc(0).Run(func() {
		for i := 0; i < n; i++ {
			w.Locality(0).SendParcel(&parcel.Parcel{
				Action: incr, Target: lay.BlockAt(0),
				CAction: ALCOSet, CTarget: gate.G,
			})
		}
	})
	w.MustWait(gate)
	got := w.MustWait(w.Proc(2).Get(lay.BlockAt(0), 1))
	if got[0] != n {
		t.Fatalf("counter %d, want %d", got[0], n)
	}
}
