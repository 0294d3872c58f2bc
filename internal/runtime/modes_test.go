package runtime

import (
	"testing"
	"time"

	"nmvgas/internal/agas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// These tests pin down the behavioural differences between the three
// address-space designs — the properties the paper's evaluation turns on.

func TestNMStaleTrafficForwardsInNetworkThenGoesDirect(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES})
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(1) // home 1
	w.MustWait(w.Proc(0).Migrate(g, 3))

	forwardsBefore := w.nicTotals()[netsim.CntForwards]
	w.MustWait(w.Proc(2).Call(g, echo, nil))
	afterFirst := w.nicTotals()[netsim.CntForwards]
	if afterFirst <= forwardsBefore {
		t.Fatal("first post-migration send did not forward in-network")
	}
	// The forwarding NIC pushed an update; the second send goes direct.
	w.MustWait(w.Proc(2).Call(g, echo, nil))
	if w.nicTotals()[netsim.CntForwards] != afterFirst {
		t.Fatal("second send still bounced (pushed update was lost)")
	}
	// And crucially: no host at the old owner or home was involved in
	// forwarding.
	if w.RankStats(1).Loc.HostForwards != 0 {
		t.Fatal("home host forwarded in NM mode")
	}
}

func TestNMNoPushUpdatesKeepsForwarding(t *testing.T) {
	w := testWorld(t, Config{
		Ranks: 4, Mode: AGASNM, Engine: EngineDES,
		Policy: netsim.Policy{NoPushUpdates: true},
	})
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(1)
	w.MustWait(w.Proc(0).Migrate(g, 3))
	base := w.nicTotals()[netsim.CntForwards]
	for i := 0; i < 3; i++ {
		w.MustWait(w.Proc(2).Call(g, echo, nil))
	}
	if got := w.nicTotals()[netsim.CntForwards] - base; got < 3 {
		t.Fatalf("forwards = %d, want >= 3 without pushed updates", got)
	}
}

func TestNMNackAblation(t *testing.T) {
	w := testWorld(t, Config{
		Ranks: 4, Mode: AGASNM, Engine: EngineDES,
		Policy: netsim.Policy{NackToHost: true, NoPushUpdates: true},
	})
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(1)
	w.MustWait(w.Proc(0).Migrate(g, 3))
	w.MustWait(w.Proc(2).Call(g, echo, nil))
	if w.nicTotals()[netsim.CntNacks] == 0 {
		t.Fatal("no NACKs under the NACK policy")
	}
	if w.RankStats(2).Loc.NICNacks == 0 {
		t.Fatal("source host never processed a NACK")
	}
	// The host repaired its NIC table; the next send completes without
	// another NACK.
	base := w.nicTotals()[netsim.CntNacks]
	w.MustWait(w.Proc(2).Call(g, echo, nil))
	if w.nicTotals()[netsim.CntNacks] != base {
		t.Fatal("second send NACKed again despite table repair")
	}
}

func TestSWStaleParcelHostForwardsAndTeachesSource(t *testing.T) {
	// Both engines: the owner update names its block only through its
	// Target, and injection caches Block from Target on either transport.
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			w := testWorld(t, Config{Ranks: 4, Mode: AGASSW, Engine: eng})
			echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
			w.Start()
			lay, err := w.AllocCyclic(0, 64, 4)
			if err != nil {
				t.Fatal(err)
			}
			g := lay.BlockAt(1)
			w.MustWait(w.Proc(0).Migrate(g, 3))

			// Rank 2 has no cache entry: the parcel goes to home 1, whose HOST
			// forwards and pushes an owner update back.
			w.MustWait(w.Proc(2).Call(g, echo, nil))
			if w.RankStats(1).Loc.HostForwards == 0 {
				t.Fatal("home host did not forward")
			}
			// The update is fire-and-forget: on the goroutine engine it may
			// land a moment after the call's continuation.
			taught := func() bool {
				o, ok := w.Locality(2).Cache().Lookup(g.Block())
				return ok && o == 3
			}
			for deadline := time.Now().Add(5 * time.Second); !taught(); {
				if eng == EngineDES || time.Now().After(deadline) {
					t.Fatal("source cache not taught")
				}
				time.Sleep(100 * time.Microsecond)
			}
			base := w.RankStats(1).Loc.HostForwards
			w.MustWait(w.Proc(2).Call(g, echo, nil))
			if w.RankStats(1).Loc.HostForwards != base {
				t.Fatal("second send still host-forwarded")
			}
		})
	}
}

func TestSWStaleOneSidedOpHostNacks(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: AGASSW, Engine: EngineDES})
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(1)
	w.MustWait(w.Proc(0).Migrate(g, 3))
	w.MustWait(w.Proc(2).Put(g, []byte{7}))
	if w.RankStats(1).Loc.HostNacks == 0 {
		t.Fatal("stale one-sided op did not take the host NACK path")
	}
	got := w.MustWait(w.Proc(2).Get(g, 1))
	if got[0] != 7 {
		t.Fatal("data wrong after repaired put")
	}
	// Repaired cache: the next op goes direct.
	base := w.RankStats(1).Loc.HostNacks
	w.MustWait(w.Proc(2).Put(g, []byte{8}))
	if w.RankStats(1).Loc.HostNacks != base {
		t.Fatal("second op NACKed again")
	}
}

func TestSWInvalidatePolicyRelearnsViaHome(t *testing.T) {
	w := testWorld(t, Config{
		Ranks: 4, Mode: AGASSW, Engine: EngineDES,
		SWCorrection: agas.CorrectionInvalidate,
	})
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(1)
	// Teach rank 2 the pre-migration location, then move the block.
	w.MustWait(w.Proc(2).Call(g, echo, nil))
	w.MustWait(w.Proc(0).Migrate(g, 3))
	w.MustWait(w.Proc(2).Call(g, echo, nil))
	// Under invalidate, the correction dropped the entry instead of
	// updating it.
	if _, ok := w.Locality(2).Cache().Lookup(g.Block()); ok {
		t.Fatal("invalidate policy kept an entry")
	}
	// Still correct, just slower: the next call goes via home again.
	w.MustWait(w.Proc(2).Call(g, echo, nil))
}

func TestLatencyOrderingAcrossModes(t *testing.T) {
	// The headline property: a remote put on untouched (never-migrated)
	// data costs PGAS ≈ NM < SW, because SW pays software translation on
	// the critical path.
	lat := func(mode Mode) netsim.VTime {
		w := testWorld(t, Config{Ranks: 2, Mode: mode, Engine: EngineDES})
		w.Start()
		lay, err := w.AllocCyclic(0, 4096, 2)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(1)
		// Warm once (first touches prime caches).
		w.MustWait(w.Proc(0).Put(g, make([]byte, 8)))
		start := w.Now()
		w.MustWait(w.Proc(0).Put(g, make([]byte, 8)))
		return w.Now() - start
	}
	pg, nm, sw := lat(PGAS), lat(AGASNM), lat(AGASSW)
	if nm < pg {
		t.Fatalf("NM (%v) beat PGAS (%v): model broken", nm, pg)
	}
	if float64(nm) > 1.2*float64(pg) {
		t.Fatalf("NM (%v) more than 20%% over PGAS (%v)", nm, pg)
	}
	if sw <= nm {
		t.Fatalf("SW (%v) not slower than NM (%v)", sw, nm)
	}
}

func TestPostMigrationLatencySteadyState(t *testing.T) {
	// After migration and one corrective round, NM and SW steady-state
	// ops both go direct; NM must not be slower than SW.
	lat := func(mode Mode) netsim.VTime {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: EngineDES})
		w.Start()
		lay, err := w.AllocCyclic(0, 4096, 4)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(1)
		w.MustWait(w.Proc(0).Migrate(g, 3))
		w.MustWait(w.Proc(2).Put(g, make([]byte, 8))) // corrective round
		start := w.Now()
		w.MustWait(w.Proc(2).Put(g, make([]byte, 8)))
		return w.Now() - start
	}
	nm, sw := lat(AGASNM), lat(AGASSW)
	if sw < nm {
		t.Fatalf("steady-state SW (%v) beat NM (%v)", sw, nm)
	}
}

func TestNICTableCapacityEvicts(t *testing.T) {
	// The source must be neither home nor owner so its NIC *table* (not
	// its authoritative routes) carries the translations.
	w := testWorld(t, Config{Ranks: 3, Mode: AGASNM, Engine: EngineDES, NICTableCap: 4})
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocLocal(1, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Migrate every block away from home 1 so sends from rank 0 bounce
	// once and the forwarding NIC pushes entries into rank 0's table.
	for d := uint32(0); d < 16; d++ {
		w.MustWait(w.Proc(1).Migrate(lay.BlockAt(d), 2))
	}
	for d := uint32(0); d < 16; d++ {
		w.MustWait(w.Proc(0).Call(lay.BlockAt(d), echo, nil))
	}
	nic := w.Fabric().NIC(0)
	if nic.Table.Len() > 4 {
		t.Fatalf("NIC table grew to %d", nic.Table.Len())
	}
	_, _, ev, _ := nic.Table.Stats()
	if ev == 0 {
		t.Fatal("bounded NIC table never evicted")
	}
}

func TestBuiltinActionIDsStable(t *testing.T) {
	// The wire protocol depends on these; moving them breaks mixed-run
	// reproducibility.
	if ALCOSet != 1 || ANop != 2 {
		t.Fatalf("builtin ids moved: lco.set=%d nop=%d", ALCOSet, ANop)
	}
	if aMigrateReq != 3 || aMigrateDone != 6 || aAllocBlocks != 7 || aFreeBlock != 8 || firstUserAction != 9 {
		t.Fatal("builtin action ids moved")
	}
	var _ parcel.ActionID = ALCOSet
}
