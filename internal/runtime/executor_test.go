package runtime

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nmvgas/internal/netsim"
)

func TestDESExecSerializesHost(t *testing.T) {
	eng := netsim.NewEngine()
	ex := &desExec{eng: eng}
	var at []netsim.VTime
	ex.Exec(100, func() { at = append(at, eng.Now()) })
	ex.Exec(50, func() { at = append(at, eng.Now()) })
	eng.Run()
	if len(at) != 2 || at[0] != 100 || at[1] != 150 {
		t.Fatalf("execution times %v, want [100 150]", at)
	}
}

func TestDESExecChargeExtendsBusy(t *testing.T) {
	eng := netsim.NewEngine()
	ex := &desExec{eng: eng}
	var second netsim.VTime
	ex.Exec(10, func() {
		ex.Charge(500) // simulated compute inside the task
		ex.Exec(0, func() { second = eng.Now() })
	})
	eng.Run()
	if second != 510 {
		t.Fatalf("post-charge task ran at %v, want 510", second)
	}
	// Negative charges are ignored.
	ex.Charge(-100)
}

func TestDESExecIdleHostRunsAtNow(t *testing.T) {
	eng := netsim.NewEngine()
	ex := &desExec{eng: eng}
	ex.Exec(10, func() {})
	eng.Run()                // now = 10, busy = 10
	eng.After(1000, func() { // fires at 1010
		ex.Exec(5, func() {
			if eng.Now() != 1015 {
				t.Errorf("task after idle ran at %v, want 1015", eng.Now())
			}
		})
	})
	eng.Run()
}

func TestGoExecFIFOAndStop(t *testing.T) {
	ex := newGoExec()
	ex.start()
	var order []int
	done := make(chan struct{})
	for i := 0; i < 10; i++ {
		i := i
		ex.Exec(0, func() {
			order = append(order, i)
			if i == 9 {
				close(done)
			}
		})
	}
	<-done
	ex.stop()
	for i, v := range order {
		if v != i {
			t.Fatalf("actor ran out of order: %v", order)
		}
	}
	// Exec after stop is a silent no-op.
	ex.Exec(0, func() { t.Error("ran after stop") })
}

func TestGoExecStopDrains(t *testing.T) {
	ex := newGoExec()
	ex.start()
	n := 0
	for i := 0; i < 100; i++ {
		ex.Exec(0, func() { n++ })
	}
	ex.stop()
	if n != 100 {
		t.Fatalf("stop dropped tasks: ran %d", n)
	}
}

func TestWorldStatsAggregation(t *testing.T) {
	w := testWorld(t, Config{Ranks: 3, Mode: AGASNM, Engine: EngineDES})
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.MustWait(w.Proc(0).Put(lay.BlockAt(1), []byte{1, 2, 3}))
	w.MustWait(w.Proc(0).Get(lay.BlockAt(1), 3))
	w.MustWait(w.Proc(0).Call(lay.BlockAt(2), echo, nil))
	w.MustWait(w.Proc(0).Migrate(lay.BlockAt(1), 2))

	s := w.Stats()
	if s.PutOps != 1 || s.GetOps != 1 {
		t.Fatalf("one-sided counters %+v", s)
	}
	if s.PutBytes != 3 || s.GetBytes != 3 {
		t.Fatalf("byte counters %+v", s)
	}
	if s.Migrations != 1 {
		t.Fatalf("migrations %d", s.Migrations)
	}
	if s.ParcelsSent == 0 || s.NetSent == 0 || s.NetBytes == 0 {
		t.Fatalf("traffic counters empty: %+v", s)
	}
	if s.DMADeliveries == 0 {
		t.Fatal("DMA counter empty after remote put/get")
	}
	tb := w.StatsTable()
	if tb.NumRows() < 15 {
		t.Fatalf("stats table has %d rows", tb.NumRows())
	}
}

// TestLocalityRunsOneActionAtATime pins the invariant migration relies on
// instead of a per-block quiescence count: a locality runs one action at
// a time on both engines — one event stream per rank on DES, the locality
// actor on the goroutine engine. Every action holds its locality's
// in-flight flag while it yields; eight drivers (goroutines, on the
// goroutine engine) hammer the blocks of one locality while migrations
// spread them over the others.
func TestLocalityRunsOneActionAtATime(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		const ranks, nblocks, drivers, calls = 4, 8, 8, 40
		w := testWorld(t, Config{Ranks: ranks, Mode: mode, Engine: eng})
		var busy [ranks]atomic.Bool
		var ran, overlaps atomic.Int64
		probe := w.Register("probe", func(c *Ctx) {
			if f := &busy[c.Rank()]; f.CompareAndSwap(false, true) {
				for i := 0; i < 4; i++ {
					goruntime.Gosched() // a second runner would get in here
				}
				f.Store(false)
			} else {
				overlaps.Add(1)
			}
			ran.Add(1)
			c.Continue(nil)
		})
		w.Start()
		lay, err := w.AllocLocal(1, 64, nblocks)
		if err != nil {
			t.Fatal(err)
		}
		call := func(i int) *LCORef { return w.Proc(i%ranks).Call(lay.BlockAt(uint32(i%nblocks)), probe, nil) }
		migrate := func(i int) *LCORef { return w.Proc(i%ranks).Migrate(lay.BlockAt(uint32(i%nblocks)), (i+2)%ranks) }
		if eng == EngineDES {
			var futs []*LCORef
			for i := 0; i < drivers*calls; i++ {
				futs = append(futs, call(i))
				if i%8 == 0 {
					futs = append(futs, migrate(i))
				}
			}
			for _, f := range futs {
				w.MustWait(f)
			}
		} else {
			var wg sync.WaitGroup
			for g := 0; g < drivers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						w.MustWait(call(g + i*drivers))
					}
				}(g)
			}
			for i := 0; i < 2*nblocks; i++ {
				w.MustWait(migrate(i))
			}
			wg.Wait()
		}
		if n := overlaps.Load(); n != 0 {
			t.Fatalf("%d actions started while another ran on the same locality", n)
		}
		if n := ran.Load(); n != drivers*calls {
			t.Fatalf("ran %d actions, want %d", n, drivers*calls)
		}
	})
}

// TestMigrateOwnBlockFromActionSeesItsWrites: an action that migrates its
// own block and keeps writing it is not raced by the migration — the
// snapshot is taken by migrate.req, which runs after the action returns,
// so the block arrives carrying the action's last write.
func TestMigrateOwnBlockFromActionSeesItsWrites(t *testing.T) {
	agasMatrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 3, Mode: mode, Engine: eng})
		var moved *LCORef
		writeMove := w.Register("write-move", func(c *Ctx) {
			d := c.Local(c.P.Target)
			d[0] = 1
			c.Migrate(c.P.Target, 2, moved.G)
			d[0] = 2
			c.Continue(nil)
		})
		w.Start()
		moved = w.NewFuture(0)
		lay, err := w.AllocLocal(1, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(0)
		w.MustWait(w.Proc(0).Call(g, writeMove, nil))
		if st := MigrateStatus(w.MustWait(moved)); st != MigrateOK {
			t.Fatalf("migrate status %d", st)
		}
		blk, ok := w.Locality(2).Store().Get(g.Block())
		if !ok {
			t.Fatal("block did not reach rank 2")
		}
		if blk.Data[0] != 2 {
			t.Fatalf("migrated block carries %d, want the action's last write 2", blk.Data[0])
		}
	})
}
