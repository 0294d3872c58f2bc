package runtime

import (
	"testing"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// chanNet drives the same NIC protocol core as the simulated NIC; these
// tests pin the policy behaviours through it, next to the DES assertions
// in modes_test.go.

// peekNICTable reads what rank's NIC would forward b to — its route, else
// its table entry, read without touching recency or counters — on the
// rank's token (World.claimNIC), so it may run mid-traffic.
func peekNICTable(w *World, rank int, b gas.BlockID) (owner int, ok bool) {
	w.claimNIC(rank, func(st *netsim.TransState) { owner, ok = st.Forward(b) })
	return owner, ok
}

// claimNIC runs fn on rank's NIC state as a driver (World.claim).
func (w *World) claimNIC(rank int, fn func(*netsim.TransState)) {
	w.claim(rank, func() { w.net.State(rank, fn) })
}

// nicTotals sums every rank's NIC counters, each read on its rank's token
// (World.RankStats).
func (w *World) nicTotals() (t netsim.NICStats) {
	for r := range w.locs {
		for c, v := range w.RankStats(r).NIC {
			t[c] += v
		}
	}
	return t
}

func goNMWorld(t *testing.T, pol netsim.Policy) *World {
	t.Helper()
	return testWorld(t, Config{
		Ranks: 4, Mode: AGASNM, Engine: EngineGo,
		Policy: pol,
	})
}

func TestChanNetForwardAndPushUpdates(t *testing.T) {
	w := goNMWorld(t, netsim.Policy{})
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(0)
	w.MustWait(w.Proc(0).Migrate(g, 3))
	// First send from a third party must arrive (via in-network forward)
	// and teach the source table; the second goes direct.
	w.MustWait(w.Proc(2).Call(g, echo, nil))
	if o, ok := peekNICTable(w, 2, g.Block()); !ok || o != 3 {
		t.Fatalf("source table not taught: %d,%v", o, ok)
	}
	w.MustWait(w.Proc(2).Call(g, echo, nil))
}

func TestChanNetNackPolicy(t *testing.T) {
	w := goNMWorld(t, netsim.Policy{NackToHost: true, NoPushUpdates: true})
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(0)
	w.MustWait(w.Proc(0).Migrate(g, 3))
	w.MustWait(w.Proc(2).Call(g, echo, nil))
	if w.RankStats(2).Loc.NICNacks == 0 {
		t.Fatal("no NACK processed under the NACK policy (go engine)")
	}
	// Table repaired by the NACK: next call completes without another.
	base := w.RankStats(2).Loc.NICNacks
	w.MustWait(w.Proc(2).Call(g, echo, nil))
	if w.RankStats(2).Loc.NICNacks != base {
		t.Fatal("second call NACKed again after repair")
	}
}

func TestChanNetNoPushKeepsBouncing(t *testing.T) {
	w := goNMWorld(t, netsim.Policy{NoPushUpdates: true})
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(0)
	w.MustWait(w.Proc(0).Migrate(g, 3))
	for i := 0; i < 3; i++ {
		w.MustWait(w.Proc(2).Call(g, echo, nil))
	}
	if _, ok := peekNICTable(w, 2, g.Block()); ok {
		t.Fatal("source table updated despite NoPushUpdates")
	}
}

func TestChanNetBoundedTableCapacity(t *testing.T) {
	w := testWorld(t, Config{Ranks: 3, Mode: AGASNM, Engine: EngineGo, NICTableCap: 2})
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocLocal(1, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for d := uint32(0); d < 8; d++ {
		w.MustWait(w.Proc(1).Migrate(lay.BlockAt(d), 2))
	}
	for d := uint32(0); d < 8; d++ {
		w.MustWait(w.Proc(0).Call(lay.BlockAt(d), echo, nil))
	}
	if n := w.RankStats(0).NICTable; n > 2 {
		t.Fatalf("go-engine NIC table grew to %d (cap 2)", n)
	}
}

func TestChanNetRejectsByGVAOutsideNM(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASSW, Engine: EngineGo})
	w.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("ByGVA send in SW mode did not fail loudly")
		}
	}()
	w.net.Send(0, &netsim.Message{Kind: kParcel, Src: 0, Dst: netsim.ByGVA})
}

// The tests below drive chanNet's receive path by hand on a world whose
// actors never start: what it sends sits in the destination mailboxes,
// where the test can look at it. Each pins a place where the goroutine
// engine's own copy of the NIC protocol had drifted from the simulated
// NIC before both drove the one core.

// quietNMWorld returns an unstarted goroutine-engine agas-nm world.
func quietNMWorld(t *testing.T, mutate ...func(*Config)) (*World, *chanNet) {
	t.Helper()
	cfg := Config{Ranks: 4, Mode: AGASNM, Engine: EngineGo}
	for _, fn := range mutate {
		fn(&cfg)
	}
	w := testWorld(t, cfg)
	return w, w.net.(*chanNet)
}

// mailbox lists the messages queued at rank's actor, oldest first.
func (c *chanNet) mailbox(rank int) (ms []*netsim.Message) {
	ex := c.execs[rank]
	for i := 0; i < ex.n; i++ {
		ms = append(ms, ex.ring[(ex.head+i)&(len(ex.ring)-1)].m)
	}
	return ms
}

func TestChanNetForwardsInPlaceAndPushesARealUpdate(t *testing.T) {
	w, cn := quietNMWorld(t)
	var traced []TraceEvent
	w.SetTracer(func(e TraceEvent) { traced = append(traced, e) })
	const b = gas.BlockID(999)
	w.net.State(1, func(st *netsim.TransState) { st.InstallRoute(b, 3) })
	w.Locality(1).epoch = 4 // the forwarding rank's view, which its table trusts

	m := &netsim.Message{Kind: kParcel, Src: 2, Dst: 1, Target: gas.New(1, b, 0), Block: b, Wire: 64}
	cn.arrive(w.Locality(1), m)

	got := cn.mailbox(3)
	if len(got) != 1 || got[0] != m {
		t.Fatalf("owner's mailbox holds %v, want the arrived message itself (forward in place, no clone)", got)
	}
	if m.Dst != 3 || m.Hops != 1 || m.Kind != kParcel {
		t.Fatalf("forwarded message: %+v", m)
	}
	push := cn.mailbox(2)
	if len(push) != 1 || push[0].Ctl != netsim.CtlTableUpdate || push[0].Block != b || push[0].Owner != 3 || push[0].Src != 1 {
		t.Fatalf("source's mailbox holds %v, want one CtlTableUpdate (block → 3) from rank 1", push)
	}
	if push[0].Epoch != 4 {
		t.Fatalf("push stamped with epoch %d, want the membership epoch 4", push[0].Epoch)
	}
	if len(traced) != 1 || traced[0].Kind != TraceNICForward || traced[0].Rank != 1 || traced[0].Info != 3 {
		t.Fatalf("trace %+v, want one TraceNICForward at rank 1 toward 3", traced)
	}

	// The push is consumed on the source's NIC and teaches its table; one
	// from before a membership change is fenced off.
	cn.arrive(w.Locality(2), push[0])
	if o, ok := peekNICTable(w, 2, b); !ok || o != 3 {
		t.Fatalf("source table after the push: %d,%v", o, ok)
	}
	w.Locality(2).epoch = 5
	stale := cn.nics[1].Control(netsim.CtlTableUpdate, m, 0, 4)
	cn.arrive(w.Locality(2), stale)
	if o, ok := peekNICTable(w, 2, b); ok && o == 0 {
		t.Fatal("stale-epoch push was applied")
	}
	if st := w.net.Stats(2); st[netsim.CntTableUpdatesRx] != 2 || st[netsim.CntStaleEpochDrops] != 1 {
		t.Fatalf("rank 2 counted %d table updates, %d stale drops; want 2 and 1", st[netsim.CntTableUpdatesRx], st[netsim.CntStaleEpochDrops])
	}
	if s := w.Stats(); s.NetForwards != 1 || s.NICTableUpds != 2 || s.NetSent != 2 {
		t.Fatalf("world NIC counters under EngineGo: forwards=%d table_upds=%d sent=%d, want 1, 2, 2", s.NetForwards, s.NICTableUpds, s.NetSent)
	}
}

func TestChanNetReadRouteForwardIsTracedAndInPlace(t *testing.T) {
	w, cn := quietNMWorld(t)
	var traced []TraceEvent
	w.SetTracer(func(e TraceEvent) { traced = append(traced, e) })
	const b = gas.BlockID(999)
	w.net.State(1, func(st *netsim.TransState) {
		st.InstallRoute(b, 0)
		st.InstallReadRoute(b, 3)
	})
	m := &netsim.Message{Kind: kGetReq, Src: 2, Dst: 1, Target: gas.New(1, b, 0), Block: b, DMA: true, Read: true, Wire: 32}
	cn.arrive(w.Locality(1), m)
	if got := cn.mailbox(3); len(got) != 1 || got[0] != m || m.Hops != 1 {
		t.Fatalf("replica holder's mailbox holds %v (hops %d), want the read itself one hop on", got, m.Hops)
	}
	if len(cn.mailbox(2)) != 0 {
		t.Fatal("a read-route forward pushed a table update")
	}
	if len(traced) != 1 || traced[0].Kind != TraceNICForward || traced[0].Info != 3 {
		t.Fatalf("trace %+v, want one TraceNICForward toward the replica at 3", traced)
	}
}

func TestChanNetDeadRankNackCrossesTheFaultPlan(t *testing.T) {
	// The plan loses the first loop NACK that enters the fabric. The NACK a
	// sender's NIC raises for a declared-dead destination is one, and like
	// every other NACK it has to pass the injector to be lost.
	w, cn := quietNMWorld(t, func(c *Config) {
		c.Faults = netsim.FaultPlan{DropNthCtl: map[uint8]int{netsim.CtlNackLoop: 1}}
	})
	// Rank 3 dead, as the sender sees it: the world is not started, so
	// only the sender's view, claimed, lands (the other ranks' posts wait
	// in their mailboxes).
	mem := w.mem
	mem.publish(2, func() { mem.down[3], mem.state[3], mem.surrogate[3] = true, MemberDead, 0 })

	m := &netsim.Message{Kind: kParcel, Src: 2, Dst: 3, Target: gas.New(1, 999, 0), Wire: 64}
	w.net.Send(2, m)
	if n := cn.faults.Snapshot().TargetedDrops; n != 1 {
		t.Fatalf("injector made %d targeted drops, want 1: the dead-rank NACK went around it", n)
	}
	if len(cn.mailbox(2)) != 0 {
		t.Fatal("the NACK the plan dropped was delivered anyway")
	}
	if st := w.net.Stats(2); st[netsim.CntDeadNacks] != 1 || st[netsim.CntSent] != 1 {
		t.Fatalf("rank 2 counted %d dead NACKs, %d sent; want 1 and 1", st[netsim.CntDeadNacks], st[netsim.CntSent])
	}
	if st := w.RankStats(2).NIC; st[netsim.CntDownDrops] != 0 || st[netsim.CntDeadNacks] != 1 {
		t.Fatalf("RankStats(2).NIC = %d down drops, %d dead NACKs under EngineGo; want 0 and 1",
			st[netsim.CntDownDrops], st[netsim.CntDeadNacks])
	}
	// The second one gets through, to the sender, owning the original.
	w.net.Send(2, m)
	if got := cn.mailbox(2); len(got) != 1 || got[0].Ctl != netsim.CtlNackLoop || got[0].Nacked != m || got[0].Owner != 1 {
		t.Fatalf("sender's mailbox holds %v, want a loop NACK with the live home as hint", got)
	}
}

// TestGoEngineCountsWhatDESCounts: both ports run the one NIC driver,
// which counts every arrival, its wire bytes and every host delivery, so
// on the fault-free equivalence workload the goroutine engine's
// Received, BytesRx and HostDelivered equal the simulator's.
func TestGoEngineCountsWhatDESCounts(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			var got [2]netsim.NICStats
			for i, eng := range allEngines {
				_, w := runEquivWorkload(t, mode, eng)
				got[i] = w.nicTotals()
			}
			for _, c := range []netsim.Counter{netsim.CntReceived, netsim.CntBytesRx, netsim.CntHostDelivered} {
				if des, goEng := got[0][c], got[1][c]; des == 0 || goEng != des {
					t.Errorf("counter %d: goroutine engine %d, DES %d", c, goEng, des)
				}
			}
		})
	}
}
