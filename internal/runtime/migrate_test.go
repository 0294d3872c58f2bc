package runtime

import (
	"bytes"
	"sync"
	"testing"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// agasModes are the modes that support migration.
var agasModes = []Mode{AGASSW, AGASNM}

func agasMatrix(t *testing.T, fn func(t *testing.T, mode Mode, eng EngineKind)) {
	t.Helper()
	for _, m := range agasModes {
		for _, e := range allEngines {
			m, e := m, e
			t.Run(m.String()+"/"+e.String(), func(t *testing.T) { fn(t, m, e) })
		}
	}
}

func TestMigrateMovesDataAndOwnership(t *testing.T) {
	agasMatrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: eng})
		w.Start()
		lay, err := w.AllocCyclic(0, 512, 4)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(1) // home rank 1
		payload := bytes.Repeat([]byte{0xCD}, 100)
		w.MustWait(w.Proc(0).Put(g.WithOffset(8), payload))

		st := w.MustWait(w.Proc(0).Migrate(g, 3))
		if MigrateStatus(st) != MigrateOK {
			t.Fatalf("migrate status %d", MigrateStatus(st))
		}
		b := g.Block()
		if _, ok := w.Locality(1).Store().Get(b); ok {
			t.Fatal("block still resident at old owner")
		}
		blk, ok := w.Locality(3).Store().Get(b)
		if !ok {
			t.Fatal("block not resident at new owner")
		}
		if !bytes.Equal(blk.Data[8:108], payload) {
			t.Fatal("block data lost in migration")
		}
		if owner := w.Locality(1).Directory().Resolve(b, 1); owner != 3 {
			t.Fatalf("home directory says owner %d", owner)
		}
		// Data path still works after migration, from every rank.
		for r := 0; r < 4; r++ {
			got := w.MustWait(w.Proc(r).Get(g.WithOffset(8), 100))
			if !bytes.Equal(got, payload) {
				t.Fatalf("rank %d reads wrong data after migration", r)
			}
		}
	})
}

func TestMigrateToSelfIsNoop(t *testing.T) {
	agasMatrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 2, Mode: mode, Engine: eng})
		w.Start()
		lay, err := w.AllocCyclic(0, 64, 2)
		if err != nil {
			t.Fatal(err)
		}
		st := w.MustWait(w.Proc(0).Migrate(lay.BlockAt(1), 1))
		if MigrateStatus(st) != MigrateOK {
			t.Fatalf("status %d", MigrateStatus(st))
		}
		if _, ok := w.Locality(1).Store().Get(lay.BlockAt(1).Block()); !ok {
			t.Fatal("no-op migration lost the block")
		}
	})
}

func TestMigrateRejectsPinnedAndBadTargets(t *testing.T) {
	agasMatrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 2, Mode: mode, Engine: eng})
		w.Start()
		fut := w.NewFuture(1)
		if st := w.MustWait(w.Proc(0).Migrate(fut.G, 0)); MigrateStatus(st) != MigratePinned {
			t.Fatalf("LCO migrate status %d", MigrateStatus(st))
		}
		if st := w.MustWait(w.Proc(0).Migrate(w.LocalityGVA(1), 0)); MigrateStatus(st) != MigratePinned {
			t.Fatalf("infrastructure migrate status %d", MigrateStatus(st))
		}
		lay, err := w.AllocCyclic(0, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		if st := w.MustWait(w.Proc(0).Migrate(lay.BlockAt(0), 9)); MigrateStatus(st) != MigrateBadTarget {
			t.Fatalf("bad-target status %d", MigrateStatus(st))
		}
	})
}

func TestPGASMigrationRefused(t *testing.T) {
	for _, eng := range allEngines {
		w := testWorld(t, Config{Ranks: 2, Mode: PGAS, Engine: eng})
		w.Start()
		lay, err := w.AllocCyclic(0, 64, 2)
		if err != nil {
			t.Fatal(err)
		}
		st := w.MustWait(w.Proc(0).Migrate(lay.BlockAt(1), 0))
		if MigrateStatus(st) != MigratePinned {
			t.Fatalf("pgas migrate status %d", MigrateStatus(st))
		}
	}
}

func TestMigrateChain(t *testing.T) {
	// Repeated migration around the world; every hop must keep data and
	// routing correct (exercises chained tombstones).
	agasMatrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: eng})
		w.Start()
		lay, err := w.AllocCyclic(0, 128, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(0)
		w.MustWait(w.Proc(0).Put(g, []byte{1, 2, 3, 4}))
		route := []int{2, 3, 1, 2, 0, 3}
		for _, to := range route {
			if st := w.MustWait(w.Proc(0).Migrate(g, to)); MigrateStatus(st) != MigrateOK {
				t.Fatalf("hop to %d failed", to)
			}
			got := w.MustWait(w.Proc((to+1)%4).Get(g, 4))
			if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
				t.Fatalf("data wrong after hop to %d", to)
			}
		}
		if _, ok := w.Locality(3).Store().Get(g.Block()); !ok {
			t.Fatal("final owner missing block")
		}
	})
}

func TestTrafficDuringMigrationIsQueuedNotLost(t *testing.T) {
	agasMatrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 3, Mode: mode, Engine: eng})
		incr := w.Register("incr", func(c *Ctx) {
			data := c.Local(c.P.Target)
			v := parcel.U64(data, 0)
			copy(data, parcel.PutU64(nil, v+1))
			c.Continue(nil)
		})
		w.Start()
		lay, err := w.AllocCyclic(0, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(0)

		const n = 50
		gate := w.NewAndGate(0, n)
		mig := w.Proc(0).Migrate(g, 2)
		// Issue increments from every rank while the migration is in
		// flight; none may be lost or run against stale data.
		for i := 0; i < n; i++ {
			r := i % 3
			w.Proc(r).Run(func() {
				w.locs[r].SendParcel(&parcel.Parcel{
					Action: incr, Target: g,
					CAction: ALCOSet, CTarget: gate.G,
				})
			})
		}
		w.MustWait(mig)
		w.MustWait(gate)
		got := w.MustWait(w.Proc(1).Get(g, 8))
		if v := parcel.U64(got, 0); v != n {
			t.Fatalf("counter = %d, want %d (lost or duplicated updates)", v, n)
		}
		if _, ok := w.Locality(2).Store().Get(g.Block()); !ok {
			t.Fatal("block did not land at rank 2")
		}
	})
}

func TestOneSidedOpsDuringMigration(t *testing.T) {
	agasMatrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 3, Mode: mode, Engine: eng})
		w.Start()
		lay, err := w.AllocCyclic(0, 256, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(0)
		mig := w.Proc(0).Migrate(g, 1)
		var puts []*LCORef
		for i := 0; i < 10; i++ {
			puts = append(puts, w.Proc(2).Put(g.WithOffset(uint32(i)), []byte{byte(i + 1)}))
		}
		w.MustWait(mig)
		for _, p := range puts {
			w.MustWait(p)
		}
		got := w.MustWait(w.Proc(0).Get(g, 10))
		for i := 0; i < 10; i++ {
			if got[i] != byte(i+1) {
				t.Fatalf("byte %d = %d after racing puts", i, got[i])
			}
		}
	})
}

func TestMigrationFromInsideAction(t *testing.T) {
	// An action can trigger migration of another block and continue via
	// LCO — the runtime's own control parcels must compose with user
	// actions.
	agasMatrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 3, Mode: mode, Engine: eng})
		var g gas.GVA
		mover := w.Register("mover", func(c *Ctx) {
			c.Migrate(g, 2, c.P.CTarget)
		})
		w.Start()
		lay, err := w.AllocCyclic(0, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		g = lay.BlockAt(0)
		fut := w.NewFuture(0)
		w.Proc(1).Invoke(w.LocalityGVA(1), mover, nil)
		// The mover's continuation is empty; chain through explicit
		// future instead.
		w.Proc(1).Run(func() {
			w.locs[1].MigrateAsync(g, 2, ALCOSet, fut.G)
		})
		if st := w.MustWait(fut); MigrateStatus(st) != MigrateOK {
			t.Fatalf("status %d", MigrateStatus(st))
		}
		if _, ok := w.Locality(2).Store().Get(g.Block()); !ok {
			t.Fatal("block not at rank 2")
		}
	})
}

func TestConcurrentMigrationsOfDifferentBlocks(t *testing.T) {
	agasMatrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: eng})
		w.Start()
		lay, err := w.AllocCyclic(0, 128, 8)
		if err != nil {
			t.Fatal(err)
		}
		for d := uint32(0); d < 8; d++ {
			w.MustWait(w.Proc(0).Put(lay.BlockAt(d), []byte{byte(d)}))
		}
		var migs []*LCORef
		for d := uint32(0); d < 8; d++ {
			migs = append(migs, w.Proc(int(d)%4).Migrate(lay.BlockAt(d), int(d+1)%4))
		}
		for _, m := range migs {
			if st := w.MustWait(m); MigrateStatus(st) != MigrateOK {
				t.Fatalf("status %d", MigrateStatus(st))
			}
		}
		for d := uint32(0); d < 8; d++ {
			got := w.MustWait(w.Proc(3).Get(lay.BlockAt(d), 1))
			if got[0] != byte(d) {
				t.Fatalf("block %d data lost", d)
			}
			if _, ok := w.Locality(int(d+1) % 4).Store().Get(lay.BlockAt(d).Block()); !ok {
				t.Fatalf("block %d not at its destination", d)
			}
		}
	})
}

func TestSerializedMigrationsOfSameBlock(t *testing.T) {
	// A second migrate request issued while the first is in flight must
	// queue behind it and then execute at the new owner.
	agasMatrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: eng})
		w.Start()
		lay, err := w.AllocCyclic(0, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(0)
		w.MustWait(w.Proc(0).Put(g, []byte{0xEE}))
		m1 := w.Proc(1).Migrate(g, 2)
		m2 := w.Proc(3).Migrate(g, 3)
		if st := w.MustWait(m1); MigrateStatus(st) != MigrateOK {
			t.Fatalf("first migrate status %d", MigrateStatus(st))
		}
		if st := w.MustWait(m2); MigrateStatus(st) != MigrateOK {
			t.Fatalf("second migrate status %d", MigrateStatus(st))
		}
		// The requests may serialize in either order; the invariants are
		// single residency, a consistent home directory, and intact,
		// reachable data.
		resident := -1
		for r := 0; r < 4; r++ {
			if _, ok := w.Locality(r).Store().Get(g.Block()); ok {
				if resident >= 0 {
					t.Fatalf("block resident at both %d and %d", resident, r)
				}
				resident = r
			}
		}
		if resident != 2 && resident != 3 {
			t.Fatalf("block ended at %d, want 2 or 3", resident)
		}
		if owner := w.Locality(0).Directory().Resolve(g.Block(), 0); owner != resident {
			t.Fatalf("directory says %d but block is at %d", owner, resident)
		}
		got := w.MustWait(w.Proc(1).Get(g, 1))
		if got[0] != 0xEE {
			t.Fatal("data lost across racing migrations")
		}
	})
}

// TestMigrateBackBeforeDone sweeps a move-back request across the window
// in which the new owner has installed the block but the old owner has
// not yet seen migrate.done (it travels two hops via the home, the
// returning migrate.data only one): the old owner must park the install
// behind its own pin instead of failing on a block that is still resident.
func TestMigrateBackBeforeDone(t *testing.T) {
	for _, mode := range agasModes {
		t.Run(mode.String(), func(t *testing.T) {
			hits := 0
			for off := netsim.VTime(0); off <= 6*netsim.Microsecond; off += 50 * netsim.Nanosecond {
				w := testWorld(t, Config{Ranks: 3, Mode: mode, Engine: EngineDES})
				w.Start()
				lay, err := w.AllocCyclic(0, 256, 3)
				if err != nil {
					t.Fatal(err)
				}
				g := lay.BlockAt(2) // homed on rank 2, a third party to both moves
				b := g.Block()
				payload := bytes.Repeat([]byte{0xA5}, 64)
				w.MustWait(w.Proc(2).Put(g.WithOffset(16), payload))
				if st := w.MustWait(w.Proc(2).Migrate(g, 0)); MigrateStatus(st) != MigrateOK {
					t.Fatalf("set-up migrate status %d", MigrateStatus(st))
				}

				out := w.Proc(0).Migrate(g, 1)
				back := w.NewFuture(1)
				w.Engine().AtRank(1, w.Now()+off, func() {
					if _, here := w.Locality(1).Store().Get(b); here && w.Locality(0).Moving(b) {
						hits++
					}
					w.Proc(1).Run(func() { w.Locality(1).MigrateAsync(g, 0, ALCOSet, back.G) })
				})
				for _, fut := range []*LCORef{out, back} {
					if st := w.MustWait(fut); MigrateStatus(st) != MigrateOK {
						t.Fatalf("offset %v: migrate status %d", off, MigrateStatus(st))
					}
				}
				w.Engine().Run()
				for r := 0; r < 3; r++ {
					if _, here := w.Locality(r).Store().Get(b); here != (r == 0) {
						t.Fatalf("offset %v: block resident at rank %d: %v", off, r, here)
					}
				}
				if owner := w.Locality(2).Directory().Resolve(b, 2); owner != 0 {
					t.Fatalf("offset %v: home directory says owner %d", off, owner)
				}
				if got := w.MustWait(w.Proc(2).Get(g.WithOffset(16), 64)); !bytes.Equal(got, payload) {
					t.Fatalf("offset %v: block bytes changed", off)
				}
				w.Stop()
			}
			if hits == 0 {
				t.Fatal("no offset issued the move-back inside the install-to-done window")
			}
			t.Logf("%d offsets fell inside the window", hits)
		})
	}
}

// TestQueuedTraceCoversUserParcels: every message parked behind a
// migration leaves a TraceQueued hop, whichever admission parked it — a
// user-action parcel (runParcel) as well as a one-sided op (hostRMA).
// Until PR 19 user parcels parked through an inline copy of the park
// step that counted in Stats.Queued without tracing.
func TestQueuedTraceCoversUserParcels(t *testing.T) {
	agasMatrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 3, Mode: mode, Engine: eng})
		var mu sync.Mutex
		queued := map[uint8]int{}
		w.SetTracer(func(ev TraceEvent) {
			if ev.Kind == TraceQueued {
				mu.Lock()
				queued[uint8(ev.Info)]++
				mu.Unlock()
			}
		})
		touch := w.Register("touch", func(c *Ctx) { c.Continue(nil) })
		w.Start()
		lay, err := w.AllocLocal(1, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(0)
		owner := w.Locality(1)

		release := w.InjectMigrationStall()
		move := w.Proc(1).Migrate(g, 2)
		until(t, w, "the block to be pinned", func() bool { return owner.Moving(g.Block()) })
		call := w.Proc(0).Call(g, touch, nil)
		put := w.Proc(0).Put(g, []byte{1})
		until(t, w, "both messages to park", func() bool { return w.RankStats(owner.rank).Loc.Queued == 2 })
		release()
		if st := MigrateStatus(w.MustWait(move)); st != MigrateOK {
			t.Fatalf("migrate status %d", st)
		}
		w.MustWait(call)
		w.MustWait(put)

		mu.Lock()
		defer mu.Unlock()
		if queued[kParcel] != 1 || queued[kPutReq] != 1 || len(queued) != 2 {
			t.Fatalf("TraceQueued events by message kind %v, want one parcel (%d) and one put (%d)", queued, kParcel, kPutReq)
		}
	})
}
