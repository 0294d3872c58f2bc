package runtime

import (
	"bytes"
	"testing"

	"nmvgas/internal/lco"
	"nmvgas/internal/parcel"
)

func TestPutGetRoundTrip(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: eng})
		w.Start()
		lay, err := w.AllocCyclic(0, 1024, 8)
		if err != nil {
			t.Fatal(err)
		}
		// Remote put then get, through every block (hits every rank).
		for d := uint32(0); d < 8; d++ {
			g := lay.BlockAt(d).WithOffset(16)
			data := bytes.Repeat([]byte{byte(d + 1)}, 64)
			w.MustWait(w.Proc(3).Put(g, data))
			got := w.MustWait(w.Proc(1).Get(g, 64))
			if !bytes.Equal(got, data) {
				t.Fatalf("block %d: got %v", d, got[:4])
			}
		}
	})
}

func TestPutGetLocalFastPath(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 2, Mode: mode, Engine: eng})
		w.Start()
		lay, err := w.AllocLocal(0, 256, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(0)
		w.MustWait(w.Proc(0).Put(g, []byte{9, 8, 7}))
		got := w.MustWait(w.Proc(0).Get(g, 3))
		if !bytes.Equal(got, []byte{9, 8, 7}) {
			t.Fatalf("local round trip got %v", got)
		}
		if w.RankStats(0).Loc.LocalRuns == 0 {
			t.Fatal("local ops did not take the local fast path")
		}
	})
}

func TestParcelCallWithContinuation(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 3, Mode: mode, Engine: eng})
		double := w.Register("double", func(c *Ctx) {
			v := parcel.U64(c.P.Payload, 0)
			c.Continue(parcel.PutU64(nil, v*2))
		})
		w.Start()
		lay, err := w.AllocCyclic(0, 64, 3)
		if err != nil {
			t.Fatal(err)
		}
		for d := uint32(0); d < 3; d++ {
			v := w.MustWait(w.Proc(2).Call(lay.BlockAt(d), double, parcel.PutU64(nil, uint64(d+10))))
			if got := parcel.U64(v, 0); got != uint64(d+10)*2 {
				t.Fatalf("call returned %d", got)
			}
		}
	})
}

func TestActionRunsAtOwner(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: eng})
		where := w.Register("where", func(c *Ctx) {
			if c.Local(c.P.Target) == nil {
				c.l.w.fail("action ran where target is not resident")
			}
			c.Continue(parcel.PutU64(nil, uint64(c.Rank())))
		})
		w.Start()
		lay, err := w.AllocCyclic(1, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		for d := uint32(0); d < 8; d++ {
			v := w.MustWait(w.Proc(0).Call(lay.BlockAt(d), where, nil))
			if got, want := int(parcel.U64(v, 0)), lay.HomeOf(d); got != want {
				t.Fatalf("block %d ran at %d, want %d", d, got, want)
			}
		}
	})
}

func TestActionMutatesBlockInPlace(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 2, Mode: mode, Engine: eng})
		incr := w.Register("incr", func(c *Ctx) {
			data := c.Local(c.P.Target)
			data[0]++
			c.Continue(nil)
		})
		w.Start()
		lay, err := w.AllocCyclic(0, 64, 2)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(1) // lives on rank 1
		for i := 0; i < 5; i++ {
			w.MustWait(w.Proc(0).Call(g, incr, nil))
		}
		got := w.MustWait(w.Proc(0).Get(g, 1))
		if got[0] != 5 {
			t.Fatalf("counter = %d", got[0])
		}
	})
}

func TestLCOSetViaParcel(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 2, Mode: mode, Engine: eng})
		w.Start()
		fut := w.NewFuture(1) // LCO lives on rank 1
		w.Proc(0).Invoke(fut.G, ALCOSet, []byte{42})
		v, err := w.Wait(fut)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != 1 || v[0] != 42 {
			t.Fatalf("future value %v", v)
		}
	})
}

func TestReduceLCOAcrossRanks(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		const ranks = 4
		w := testWorld(t, Config{Ranks: ranks, Mode: mode, Engine: eng})
		contrib := w.Register("contrib", func(c *Ctx) {
			c.Continue(lco.EncodeI64(int64(c.Rank() + 1)))
		})
		w.Start()
		red := w.NewReduce(0, ranks, lco.SumI64)
		for r := 0; r < ranks; r++ {
			w.Proc(r).l.exec.Exec(0, func() {})
		}
		for r := 0; r < ranks; r++ {
			r := r
			w.Proc(r).Run(func() {
				w.locs[r].SendParcel(&parcel.Parcel{
					Action: contrib, Target: w.LocalityGVA(r),
					CAction: ALCOSet, CTarget: red.G,
				})
			})
		}
		v, err := w.Wait(red)
		if err != nil {
			t.Fatal(err)
		}
		if got := lco.DecodeI64(v); got != 1+2+3+4 {
			t.Fatalf("reduce = %d", got)
		}
	})
}

func TestManyConcurrentOps(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: eng})
		bump := w.Register("bump", func(c *Ctx) {
			c.Continue(nil)
		})
		w.Start()
		lay, err := w.AllocCyclic(0, 4096, 16)
		if err != nil {
			t.Fatal(err)
		}
		const n = 200
		gate := w.NewAndGate(0, n)
		p := w.Proc(0)
		p.Run(func() {
			for i := 0; i < n; i++ {
				w.locs[0].SendParcel(&parcel.Parcel{
					Action: bump, Target: lay.BlockAt(uint32(i % 16)),
					CAction: ALCOSet, CTarget: gate.G,
				})
			}
		})
		if _, err := w.Wait(gate); err != nil {
			t.Fatal(err)
		}
	})
}

func TestGetRejectsOutOfBounds(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: PGAS, Engine: EngineDES})
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds get did not fail loudly")
		}
	}()
	w.MustWait(w.Proc(0).Get(lay.BlockAt(1).WithOffset(60), 16))
}

func TestPutToLCOBlockFails(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: PGAS, Engine: EngineDES})
	w.Start()
	fut := w.NewFuture(1)
	defer func() {
		if recover() == nil {
			t.Fatal("put to an LCO block did not fail loudly")
		}
	}()
	w.MustWait(w.Proc(0).Put(fut.G, []byte{1}))
}

func TestGVAArithmeticAddressing(t *testing.T) {
	// Writes through Layout.At land where reads through Layout.At find
	// them, across block boundaries.
	w := testWorld(t, Config{Ranks: 3, Mode: AGASNM, Engine: EngineDES})
	w.Start()
	lay, err := w.AllocCyclic(0, 32, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []uint64{0, 31, 32, 95, 191} {
		g := lay.At(idx)
		w.MustWait(w.Proc(0).Put(g, []byte{byte(idx)}))
		got := w.MustWait(w.Proc(2).Get(g, 1))
		if got[0] != byte(idx) {
			t.Fatalf("index %d: got %d", idx, got[0])
		}
	}
}
