package runtime

import (
	"bytes"
	"sync/atomic"
	"testing"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// Tests for the PR4 bulk data path: in-NIC batch scatter for coalesced
// parcels, the coalescer's generation guard, and the vectored one-sided
// operations.

// TestScatterRecordCodecOffset pins the contract the whole scatter path
// rests on: the routing GVA a NIC reads out of a batch record at a fixed
// byte offset is exactly the parcel codec's Target field. If the parcel
// wire layout moves, this fails before any routing test gets confusing.
func TestScatterRecordCodecOffset(t *testing.T) {
	p := &parcel.Parcel{Action: 7, Src: 2, Seq: 99,
		Target: gas.New(3, 41, 17), Payload: []byte("abc")}
	enc := parcel.Encode(p)
	if g := netsim.ScatterGVA(enc); g != p.Target {
		t.Fatalf("ScatterGVA read %v from encoded parcel, want %v", g, p.Target)
	}
	var buf []byte
	buf = netsim.AppendScatterRecord(buf, enc)
	buf = netsim.AppendScatterRecord(buf, enc)
	r := netsim.NewScatterReader(buf)
	for i := 0; i < 2; i++ {
		g, rec, ok := r.Next()
		if !ok {
			t.Fatalf("record %d missing", i)
		}
		if g != p.Target {
			t.Fatalf("record %d routed to %v, want %v", i, g, p.Target)
		}
		if !bytes.Equal(rec, enc) {
			t.Fatalf("record %d bytes mangled", i)
		}
	}
	if _, _, ok := r.Next(); ok {
		t.Fatal("reader produced a third record")
	}
}

// TestBatchScatterEliminatesHostReroutes is the PR4 acceptance scenario:
// parcels coalesced toward a block's stale home. Under agas-nm the home
// NIC splits the batch and forwards the movers in-network — the host
// never re-routes a record (BatchReroutes == 0, ScatterForwards > 0).
// Under agas-sw the same workload unbundles at the host and pays one
// software re-route per record, which is what the counter was showing
// before the NIC scatter existed.
func TestBatchScatterEliminatesHostReroutes(t *testing.T) {
	run := func(t *testing.T, mode Mode, eng EngineKind) WorldStats {
		cfg := coalCfg(8)
		cfg.Mode = mode
		cfg.Engine = eng
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
		if got := w.MustWait(w.Proc(0).Get(g, 1)); got[0] != n {
			t.Fatalf("%s/%s: counter %d, want %d", mode, eng, got[0], n)
		}
		return w.Stats()
	}
	for _, eng := range allEngines {
		t.Run("agas-nm/"+eng.String(), func(t *testing.T) {
			s := run(t, AGASNM, eng)
			if s.BatchReroutes != 0 {
				t.Errorf("host re-routed %d batched records; NIC scatter should handle all", s.BatchReroutes)
			}
			if s.ScatterForwards == 0 {
				t.Error("no in-NIC scatter forwards recorded; batch never split in-network")
			}
		})
	}
	t.Run("agas-sw/control", func(t *testing.T) {
		s := run(t, AGASSW, EngineDES)
		if s.BatchReroutes == 0 {
			t.Error("software-managed control shows zero host re-routes; counter is dead")
		}
		if s.ScatterForwards != 0 {
			t.Errorf("agas-sw recorded %d scatter forwards; NIC splitting must be agas-nm only", s.ScatterForwards)
		}
	})
}

// TestBatchScatterAllResident checks the other side of the NIC gate: a
// batch whose records are all resident at the target is delivered to the
// host unsplit (no forwards, no re-routes, no splits).
func TestBatchScatterAllResident(t *testing.T) {
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			cfg := coalCfg(8)
			cfg.Engine = eng
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
			const n = 24
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
			s := w.Stats()
			if s.ScatterSplits != 0 || s.ScatterForwards != 0 || s.BatchReroutes != 0 {
				t.Fatalf("resident batch took the slow path: splits=%d forwards=%d reroutes=%d",
					s.ScatterSplits, s.ScatterForwards, s.BatchReroutes)
			}
			if got := w.MustWait(w.Proc(0).Get(g, 1)); got[0] != n {
				t.Fatalf("counter %d, want %d", got[0], n)
			}
		})
	}
}

// TestCoalesceGenerationGuard regresses the stale-timer bug: a delayed
// flush armed by one buffer generation must not drain a later
// generation's lone parcel early. Timeline (DES, coalMaxDelay 2µs):
// parcel A at ~0 arms a gen-0 timer for ~2µs; a burst at 0.5µs flushes
// the buffer by threshold (gen 1); lone parcel D at 1µs arms a gen-1
// timer for ~3µs. The stale gen-0 timer firing at ~2µs must be a no-op,
// so D is still buffered at 2.5µs and completes no earlier than 3µs.
func TestCoalesceGenerationGuard(t *testing.T) {
	w := testWorld(t, coalCfg(3))
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(0)
	send := func(ct *LCORef) {
		w.Locality(0).SendParcel(&parcel.Parcel{
			Action: echo, Target: g, CAction: ALCOSet, CTarget: ct.G,
		})
	}
	burst := w.NewAndGate(0, 3)
	lone := w.NewFuture(0)
	w.Proc(0).Run(func() { send(burst) }) // A: arms gen-0 timer
	w.Engine().After(500, func() {
		send(burst) // B
		send(burst) // C: count hits MaxParcels, threshold flush, gen 0 -> 1
	})
	w.Engine().After(netsim.Microsecond, func() {
		send(lone) // D: lone in gen 1, arms its own timer for ~3µs
	})
	buffered := -1
	w.Engine().After(2500, func() {
		buffered = w.Locality(0).coal.bufs[1].count
	})
	w.MustWait(burst)
	w.MustWait(lone)
	if buffered != 1 {
		t.Fatalf("%d parcels buffered at 2.5µs, want lone D: the stale gen-0 timer flushed it early", buffered)
	}
	if now := w.Now(); now < 3*netsim.Microsecond {
		t.Fatalf("lone parcel completed at %v: the stale gen-0 timer flushed it early", now)
	}
}

// TestPutGetVecSemantics drives the vectored one-sided path on every
// mode × engine: scattered writes land at their offsets, gathers return
// the fragments concatenated, and untouched bytes stay zero.
func TestPutGetVecSemantics(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 2, Mode: mode, Engine: eng})
		w.Start()
		lay, err := w.AllocLocal(1, 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(0)
		segs := []PutSeg{
			{Off: 0, Data: []byte("head")},
			{Off: 512, Data: []byte("middle")},
			{Off: 1020, Data: []byte("tail")},
		}
		w.Proc(0).PutVecWait(g, segs)
		got := make([]byte, 10)
		w.Proc(0).GetVecWaitInto(g, []GetSeg{
			{Off: 512, N: 6}, {Off: 1020, N: 4},
		}, got)
		if string(got) != "middletail" {
			t.Fatalf("gather read %q, want %q", got, "middletail")
		}
		// Whole-block read: fragments landed at their offsets, gaps zero.
		full := make([]byte, 1024)
		w.Proc(1).GetWaitInto(g, full)
		if string(full[:4]) != "head" || string(full[512:518]) != "middle" || string(full[1020:]) != "tail" {
			t.Fatal("vectored put fragments misplaced")
		}
		for _, i := range []int{4, 100, 511, 518, 1019} {
			if full[i] != 0 {
				t.Fatalf("byte %d dirtied: %d", i, full[i])
			}
		}
	})
}

// TestVecOpsFollowMigration sends vectored ops at a block's stale home:
// the one-sided re-route machinery (NIC forwarding under agas-nm, host
// nack/chase under agas-sw) must deliver them to the migrated master.
func TestVecOpsFollowMigration(t *testing.T) {
	for _, mode := range agasModes {
		for _, eng := range allEngines {
			t.Run(mode.String()+"/"+eng.String(), func(t *testing.T) {
				w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: eng})
				w.Start()
				lay, err := w.AllocLocal(1, 256, 1)
				if err != nil {
					t.Fatal(err)
				}
				g := lay.BlockAt(0)
				w.MustWait(w.Proc(0).Migrate(g, 3))
				w.Proc(2).PutVecWait(g, []PutSeg{
					{Off: 8, Data: []byte("after")},
					{Off: 200, Data: []byte("move")},
				})
				got := make([]byte, 9)
				w.Proc(2).GetVecWaitInto(g, []GetSeg{
					{Off: 8, N: 5}, {Off: 200, N: 4},
				}, got)
				if string(got) != "aftermove" {
					t.Fatalf("read %q through migrated block, want %q", got, "aftermove")
				}
			})
		}
	}
}

// TestPipelinedPutsCompleteOnce floods one owner with pipelined puts
// from the driver and counts completions, one kPutAck each: every put
// has completed by the time a blocking get queued behind them returns,
// and none completes again once the world is quiet.
func TestPipelinedPutsCompleteOnce(t *testing.T) {
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: eng})
			w.Start()
			lay, err := w.AllocLocal(1, 4096, 1)
			if err != nil {
				t.Fatal(err)
			}
			g, p := lay.BlockAt(0), w.Proc(0)
			const n = 500
			var acked atomic.Int64
			for i := 0; i < n; i++ {
				p.PutAsync(g, []byte("payload!"), func() { acked.Add(1) })
			}
			got := make([]byte, 8)
			p.GetWaitInto(g, got)
			if string(got) != "payload!" {
				t.Fatalf("data after %d pipelined puts: %q", n, got)
			}
			if c := acked.Load(); c != n {
				t.Fatalf("%d of %d puts completed before the get behind them", c, n)
			}
			if eng == EngineDES {
				w.Drain()
			} else {
				w.Stop()
			}
			if c := acked.Load(); c != n {
				t.Fatalf("%d completions for %d puts", c, n)
			}
		})
	}
}
