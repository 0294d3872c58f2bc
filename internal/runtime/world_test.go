package runtime

import (
	"strings"
	"testing"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// testWorld builds and starts a world, arranging teardown.
func testWorld(t *testing.T, cfg Config) *World {
	t.Helper()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	return w
}

// allModes × allEngines drives mode/engine matrix tests.
var allModes = []Mode{PGAS, AGASSW, AGASNM}
var allEngines = []EngineKind{EngineDES, EngineGo}

func matrix(t *testing.T, fn func(t *testing.T, mode Mode, eng EngineKind)) {
	t.Helper()
	for _, m := range allModes {
		for _, e := range allEngines {
			m, e := m, e
			t.Run(m.String()+"/"+e.String(), func(t *testing.T) { fn(t, m, e) })
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewWorld(Config{Ranks: 0}); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := NewWorld(Config{Ranks: 1 << 13}); err == nil {
		t.Error("oversized world accepted")
	}
	if _, err := NewWorld(Config{Ranks: 2, Mode: Mode(9)}); err == nil {
		t.Error("bad mode accepted")
	}
	w, err := NewWorld(Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w.Config().Model.Latency == 0 {
		t.Error("model defaulting did not happen")
	}
	if p := w.Config().Policy; p.NackToHost || p.NoPushUpdates {
		t.Error("default policy is not forward-in-network with pushed updates")
	}
}

func TestModeStrings(t *testing.T) {
	if PGAS.String() != "pgas" || AGASSW.String() != "agas-sw" || AGASNM.String() != "agas-nm" {
		t.Error("mode strings")
	}
	if !strings.HasPrefix(Mode(7).String(), "mode(") {
		t.Error("unknown mode string")
	}
	if EngineDES.String() != "des" || EngineGo.String() != "go" {
		t.Error("engine strings")
	}
}

func TestRegistryRules(t *testing.T) {
	w := testWorld(t, Config{Ranks: 1})
	id := w.Register("x", func(*Ctx) {})
	if id < firstUserAction {
		t.Fatalf("user action got builtin id %d", id)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() { w.Register("x", func(*Ctx) {}) })
	mustPanic("nil action", func() { w.Register("y", nil) })
	w.Start()
	mustPanic("post-start", func() { w.Register("z", func(*Ctx) {}) })
	mustPanic("double start", w.Start)
}

func TestAllocCreatesBlocksAtHomes(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM})
	l, err := w.AllocCyclic(1, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	for d := uint32(0); d < 8; d++ {
		home := l.HomeOf(d)
		if _, ok := w.Locality(home).Store().Get(l.Base.Block() + gas.BlockID(d)); !ok {
			t.Fatalf("block %d missing at home %d", d, home)
		}
	}
	// Distinct allocations get disjoint blocks.
	l2, err := w.AllocLocal(0, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Base.Block() < l.Base.Block()+8 {
		t.Fatal("allocations overlap")
	}
	if err := w.Free(l); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Locality(l.HomeOf(0)).Store().Get(l.Base.Block()); ok {
		t.Fatal("block survived Free")
	}
	if err := w.Free(l); err == nil {
		t.Fatal("double Free accepted")
	}
}

func TestAllocValidation(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2})
	if _, err := w.AllocCyclic(5, 64, 1); err == nil {
		t.Error("bad origin accepted")
	}
	if _, err := w.AllocCyclic(0, 64, 0); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := w.AllocCyclic(0, 0, 1); err == nil {
		t.Error("zero bsize accepted")
	}
	if _, err := w.AllocCyclic(0, gas.MaxBlockSize+1, 1); err == nil {
		t.Error("oversized bsize accepted")
	}
}

func TestWaitDeadlockDetection(t *testing.T) {
	w := testWorld(t, Config{Ranks: 1, Engine: EngineDES})
	w.Start()
	fut := w.NewFuture(0)
	if _, err := w.Wait(fut); err == nil {
		t.Fatal("Wait on an unset future with an empty queue must fail")
	}
}

func TestLocalityGVAIsResident(t *testing.T) {
	w := testWorld(t, Config{Ranks: 3})
	for r := 0; r < 3; r++ {
		g := w.LocalityGVA(r)
		if g.Home() != r {
			t.Fatalf("locality GVA home = %d", g.Home())
		}
		blk, ok := w.Locality(r).Store().Get(g.Block())
		if !ok || !blk.Pinned {
			t.Fatalf("locality block missing or unpinned at %d", r)
		}
	}
}

func TestDESDeterminism(t *testing.T) {
	run := func() int64 {
		w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES})
		echo := w.Register("echo", func(c *Ctx) { c.Continue(c.P.Payload) })
		w.Start()
		lay, err := w.AllocCyclic(0, 256, 8)
		if err != nil {
			t.Fatal(err)
		}
		var last *LCORef
		for i := 0; i < 20; i++ {
			last = w.Proc(i%4).Call(lay.BlockAt(uint32(i%8)), echo, parcel.PutU64(nil, uint64(i)))
		}
		w.MustWait(last)
		w.Drain()
		return int64(w.Now())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("DES runs diverged: %d vs %d simulated ns", a, b)
	}
	if a == 0 {
		t.Fatal("no simulated time elapsed")
	}
}

// TestEachClockOnEachEngine pins what every clock reads on each engine,
// the interface the engine port keeps (benchmark/xorupdate.go reads
// Ctx.Now). Inside a rank on DES, Ctx.Now and the rank's simulated and
// latency clocks read the running event's time, and World.Now the
// driver façade's (the last barrier under sharding); in driver context
// World.Now is the façade's. The goroutine engine has no simulated
// clock: Ctx.Now and World.Now read 0, simNow reads wall time since
// World creation scaled back through goTimeScale, and the DES-only
// calls panic.
func TestEachClockOnEachEngine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine EngineKind
		shards int
	}{
		{"go", EngineGo, 0},
		{"des", EngineDES, 0},
		{"shards=1", EngineDES, 1},
		{"shards=4", EngineDES, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: tc.engine, Shards: tc.shards})
			type reading struct {
				ctx, world, sim, event netsim.VTime
				lat                    int64
			}
			var got [4]reading
			clock := w.Register("clock", func(c *Ctx) {
				l := c.l
				r := reading{ctx: c.Now(), world: c.World().Now(), sim: l.exec.simNow(), lat: l.exec.latNow()}
				if tc.engine == EngineDES {
					r.event = c.World().Engine().RankEngine(c.Rank()).Now()
				}
				got[c.Rank()] = r
				c.Continue(nil)
			})
			w.Start()
			for rank := 1; rank < 4; rank++ {
				w.MustWait(w.Proc(0).Call(w.LocalityGVA(rank), clock, nil))
				r := got[rank]
				if tc.engine == EngineGo {
					if r.ctx != 0 || r.world != 0 || w.Now() != 0 {
						t.Errorf("rank %d: Ctx.Now %v, World.Now %v in the rank and %v outside it, want 0", rank, r.ctx, r.world, w.Now())
					}
					continue
				}
				if r.ctx <= 0 || r.ctx != r.event || r.sim != r.ctx || r.lat != int64(r.ctx) {
					t.Errorf("rank %d: Ctx.Now %v, simNow %v, latNow %v, want the running event's time %v", rank, r.ctx, r.sim, r.lat, r.event)
				}
				if (tc.shards == 0 && r.world != r.ctx) || r.world > r.ctx {
					t.Errorf("rank %d: World.Now %v inside the rank, Ctx.Now %v", rank, r.world, r.ctx)
				}
				if now := w.Now(); now != w.Engine().Now() || now < r.ctx {
					t.Errorf("rank %d: World.Now %v in driver context, façade %v, action at %v", rank, now, w.Engine().Now(), r.ctx)
				}
			}
			if tc.engine == EngineDES {
				return
			}
			lo := time.Since(w.epoch)
			sim, lat := w.locs[0].exec.simNow(), w.locs[0].exec.latNow()
			hi := time.Since(w.epoch)
			if sim < netsim.VTime(lo/goTimeScale) || sim > netsim.VTime(hi/goTimeScale) {
				t.Errorf("simNow %v outside the scaled wall clock [%v, %v]", sim, lo/goTimeScale, hi/goTimeScale)
			}
			if lat < int64(lo) || lat > int64(hi) {
				t.Errorf("latNow %v outside the wall clock [%v, %v]", lat, int64(lo), int64(hi))
			}
			for name, call := range map[string]func(){"Drain": w.Drain, "Engine": func() { w.Engine() }} {
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, "requires the DES engine") {
							t.Errorf("%s on the goroutine engine: panic %q, want requires the DES engine", name, msg)
						}
					}()
					call()
				}()
			}
		})
	}
}
