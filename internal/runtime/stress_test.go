package runtime

import (
	"testing"

	"nmvgas/internal/parcel"
)

// Pathological-configuration stress tests: the protocol must stay correct
// (if slow) under adversarial settings.

func TestSingleRankWorldEverythingLocal(t *testing.T) {
	for _, eng := range allEngines {
		w := testWorld(t, Config{Ranks: 1, Mode: AGASNM, Engine: eng})
		echo := w.Register("echo", func(c *Ctx) { c.Continue(c.P.Payload) })
		w.Start()
		lay, err := w.AllocCyclic(0, 256, 4)
		if err != nil {
			t.Fatal(err)
		}
		w.MustWait(w.Proc(0).Put(lay.BlockAt(2), []byte{1}))
		v := w.MustWait(w.Proc(0).Call(lay.BlockAt(2), echo, []byte{9}))
		if v[0] != 9 {
			t.Fatal("single-rank call broken")
		}
		// Migration to self is the only legal move.
		st := w.MustWait(w.Proc(0).Migrate(lay.BlockAt(2), 0))
		if MigrateStatus(st) != MigrateOK {
			t.Fatalf("status %d", MigrateStatus(st))
		}
		if s := w.Stats(); s.NetSent != 0 && eng == EngineDES {
			t.Fatalf("single-rank world used the network: %d messages", s.NetSent)
		}
	}
}

func TestTinyNICTableThrashStaysCorrect(t *testing.T) {
	// A 1-entry NIC table makes every translation a conflict miss; all
	// traffic to migrated blocks bounces through homes forever. Slow,
	// never wrong.
	w := testWorld(t, Config{Ranks: 3, Mode: AGASNM, Engine: EngineDES, NICTableCap: 1})
	incr := w.Register("incr", func(c *Ctx) {
		d := c.Local(c.P.Target)
		d[0]++
		c.Continue(nil)
	})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for d := uint32(0); d < 8; d++ {
		w.MustWait(w.Proc(1).Migrate(lay.BlockAt(d), 2))
	}
	const rounds = 5
	for r := 0; r < rounds; r++ {
		for d := uint32(0); d < 8; d++ {
			w.MustWait(w.Proc(0).Call(lay.BlockAt(d), incr, nil))
		}
	}
	for d := uint32(0); d < 8; d++ {
		got := w.MustWait(w.Proc(0).Get(lay.BlockAt(d), 1))
		if got[0] != rounds {
			t.Fatalf("block %d counter %d, want %d", d, got[0], rounds)
		}
	}
	if w.Fabric().NIC(0).Table.Len() > 1 {
		t.Fatal("table exceeded capacity 1")
	}
}

func TestLargeWorldSmoke(t *testing.T) {
	// 64 localities: allocation spread, cross-world traffic, a barrier's
	// worth of parcels, and a long-distance migration.
	w := testWorld(t, Config{Ranks: 64, Mode: AGASNM, Engine: EngineDES})
	echo := w.Register("echo", func(c *Ctx) { c.Continue(parcel.PutU64(nil, uint64(c.Rank()))) })
	w.Start()
	lay, err := w.AllocCyclic(0, 512, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []uint32{0, 63, 64, 127} {
		v := w.MustWait(w.Proc(31).Call(lay.BlockAt(d), echo, nil))
		if got := int(parcel.U64(v, 0)); got != lay.HomeOf(d) {
			t.Fatalf("block %d ran at %d, want %d", d, got, lay.HomeOf(d))
		}
	}
	w.MustWait(w.Proc(0).Migrate(lay.BlockAt(5), 63))
	v := w.MustWait(w.Proc(17).Call(lay.BlockAt(5), echo, nil))
	if got := int(parcel.U64(v, 0)); got != 63 {
		t.Fatalf("migrated block ran at %d", got)
	}
}

func TestGoEngineManyWorkersHeavyTraffic(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineGo})
	spin := w.Register("spin", func(c *Ctx) {
		// A tiny bit of real work per action, so the actors' mailboxes
		// back up while drivers keep sending from every rank.
		s := 0
		for i := 0; i < 100; i++ {
			s += i
		}
		_ = s
		c.Continue(nil)
	})
	w.Start()
	lay, err := w.AllocCyclic(0, 1024, 16)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	gate := w.NewAndGate(0, n)
	for i := 0; i < n; i++ {
		r := i % 4
		d := uint32(i % 16)
		w.Proc(r).Run(func() {
			w.Locality(r).SendParcel(&parcel.Parcel{
				Action: spin, Target: lay.BlockAt(d),
				CAction: ALCOSet, CTarget: gate.G,
			})
		})
	}
	w.MustWait(gate)
}

func TestMaxSizeBlocksMoveIntact(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES})
	w.Start()
	lay, err := w.AllocLocal(0, 1<<20, 1) // 1 MiB, the maximum
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(0)
	w.MustWait(w.Proc(0).Put(g.WithOffset(1<<20-8), []byte{1, 2, 3, 4, 5, 6, 7, 8}))
	w.MustWait(w.Proc(0).Migrate(g, 1))
	got := w.MustWait(w.Proc(0).Get(g.WithOffset(1<<20-8), 8))
	if got[7] != 8 {
		t.Fatal("tail byte lost in max-size migration")
	}
}
