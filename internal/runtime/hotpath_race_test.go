package runtime

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// Race coverage for the hot-path concurrency surface: each goNIC's
// translation state is read and written from many goroutines, always
// through its rank's token, while migrations and recovery rewrite it,
// and goExec's ring buffer is stopped while producers still push.
// These tests exist to fail under -race (the CI test job runs the whole
// package with -race); without it they are cheap smoke tests.

// TestAllocPublishesCompleteBlocks: allocation may run while traffic does.
// A store has one writer, its rank, so allocation inserts each block by
// claiming its home, and a reader claims the rank too. One goroutine
// allocates while another claims every rank and Gets the newest ids,
// reading their Home; under -race an insert beside the reader's claim,
// or a Home set after the insert, is reported.
func TestAllocPublishesCompleteBlocks(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineGo})
	w.Start()
	var done atomic.Bool
	var top atomic.Uint32 // the last block of the newest finished allocation
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			// The allocation in flight takes the ids just above top.
			base := gas.BlockID(top.Load())
			for r, l := range w.locs {
				bad := gas.BlockID(0)
				w.claim(r, func() {
					for id := base + 1; id <= base+64; id++ {
						if blk, ok := l.store.Get(id); ok && blk.Home != r {
							bad = id
						}
					}
				})
				if bad != 0 {
					t.Errorf("block %d resident on its home %d reads another Home", bad, r)
					return
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		lay, err := w.AllocCyclic(i%4, 64, 16)
		if err != nil {
			t.Fatal(err)
		}
		top.Store(uint32(lay.Base.Block()) + lay.NBlocks - 1)
	}
	done.Store(true)
	wg.Wait()
}

// TestGoNICStateConcurrentChurn: a goroutine-engine NIC's translation
// state and counters, and a locality's counters and reliability windows,
// have one writer, the rank's token holder, and take no lock. Readers
// read every rank's NIC through its owner (RankStats, and peekNICTable
// and a writer's scratch writes through World.claimNIC), and a scraper
// reads the world's reports (Stats, DeliveryStats, UnackedMessages,
// MembershipStats), while the actors run traffic, migrations, FreeAsync
// and ReplicateLive/Unreplicate, and then a kill and a join whose
// recovery posts NIC writes to every rank. The bounded row keeps the
// table at capacity, so LRU eviction runs under the readers too. Under
// -race any access off the owner is reported.
func TestGoNICStateConcurrentChurn(t *testing.T) {
	for _, tableCap := range []int{0, 4} {
		t.Run(fmt.Sprintf("cap=%d", tableCap), func(t *testing.T) {
			goNICStateChurn(t, tableCap)
		})
	}
}

func goNICStateChurn(t *testing.T, tableCap int) {
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineGo, NICTableCap: tableCap, Reliability: relStress})
	bump := w.Register("bump", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	alloc := func(home int, n uint32) gas.Layout {
		t.Helper()
		lay, err := w.AllocLocal(home, 64, n)
		if err != nil {
			t.Fatal(err)
		}
		return lay
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Traffic and migrations stay on ranks 0-2, so rank 3 can die under
	// them. Scratch blocks absorb the raw writes: bogus owners for blocks
	// that carry live traffic would (correctly) trip the misrouting
	// invariants. repl's holders are 3 and 0; doomed lives on rank 3,
	// its first block replicated (promoted at the death), its second not
	// (lost).
	lay, scratch, repl := alloc(1, 8), alloc(2, 8), alloc(2, 2)
	doomedRepl, doomedLost := alloc(3, 1), alloc(3, 1)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				r := (g + i) % 4
				peekNICTable(w, r, lay.BlockAt(uint32(i%8)).Block())
				peekNICTable(w, r, repl.BlockAt(uint32(i%2)).Block())
				w.RankStats(r)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			w.Stats()
			w.DeliveryStats()
			w.UnackedMessages()
			w.MembershipStats()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			b := scratch.BlockAt(uint32(i % 8)).Block()
			w.claimNIC(i%4, func(ts *netsim.TransState) { ts.Table.Update(b, i%4) })
			w.claimNIC((i+1)%4, func(ts *netsim.TransState) { ts.InstallRoute(b, i%4) })
			if i%7 == 0 {
				w.claimNIC(i%4, func(ts *netsim.TransState) { ts.ClearResident(b) })
			}
		}
	}()

	for round := 0; round < 3; round++ {
		must(w.ReplicateLive(repl, 2))
		for d := uint32(0); d < 8; d++ {
			g := lay.BlockAt(d)
			w.MustWait(w.Proc(int(d)%3).Call(g, bump, nil))
			if d%2 == 0 {
				w.MustWait(w.Proc(0).Migrate(g, (round+int(d))%3))
			}
		}
		w.MustWait(w.Proc(1).Get(repl.BlockAt(0), 8))
		must(w.Unreplicate(repl))
		tmp := alloc(round, 4)
		w.MustWait(w.Proc(0).Migrate(tmp.BlockAt(1), (round+1)%3))
		w.MustWait(w.Proc(2).FreeAsync(tmp))
	}

	must(w.ReplicateLive(repl, 2))
	must(w.ReplicateLive(doomedRepl, 2))
	w.Kill(3)
	w.mem.declareDead(3) // what the probes conclude; no traffic has to find the silence
	if !w.AwaitMember(3, MemberDead, 20*time.Second) {
		t.Fatalf("rank 3's recovery never landed: %+v", w.MembershipStats())
	}
	for d := uint32(0); d < 8; d++ {
		w.MustWait(w.Proc(int(d)%3).Call(lay.BlockAt(d), bump, nil))
	}
	must(w.Join(3))
	if !w.AwaitMember(3, MemberAlive, 20*time.Second) {
		t.Fatalf("rank 3 never rejoined: state=%v", w.MemberState(3))
	}
	w.MustWait(w.Proc(3).Call(lay.BlockAt(0), bump, nil))
	stop.Store(true)
	wg.Wait()
	w.mem.mu.Lock()
	_, lost := w.mem.lost[doomedLost.Base.Block()]
	w.mem.mu.Unlock()
	if ms := w.MembershipStats(); ms.Deaths != 1 || ms.Joins != 1 || ms.Rehomed != 1 || !lost {
		t.Fatalf("membership %+v (unreplicated block lost: %v), want one death, one join, one promotion and the lost block", ms, lost)
	}
}

// TestLocalityStateClaimedUnderChurn: a locality's migration pins,
// replica holder records and heat tracker have one writer, the rank's
// token holder, and take no lock. Pollers read them through each rank's
// owner (Moving, DumpState, HeatTop, HeatEpoch, HeatSampled claim every
// rank) while the actors run user actions and reads that feed the heat
// sampler, migrations of plain and replicated blocks (a replicated
// block's re-home posts each holder's record to its rank),
// ReplicateLive/Unreplicate, Free and FreeAsync, and a migration held
// pinned by InjectMigrationStall; the pulse evaluates its watchdogs the
// whole time (the stall watchdog claims every rank to read its pins).
// Under -race any access off the owner is reported.
func TestLocalityStateClaimedUnderChurn(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineGo,
		Heat:  HeatConfig{Enabled: true},
		Pulse: PulseConfig{Enabled: true, Period: 10 * netsim.Microsecond}})
	bump := w.Register("bump", func(c *Ctx) {
		if d := c.Local(c.P.Target); d != nil {
			d[0]++
		}
		c.Continue(nil)
	})
	w.Start()
	alloc := func(home int, n uint32) gas.Layout {
		t.Helper()
		lay, err := w.AllocLocal(home, 64, n)
		if err != nil {
			t.Fatal(err)
		}
		return lay
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// repl lives on rank 2, so its holders are 3 and 0 and a move to rank
	// 1 re-homes the set at a third party.
	lay, repl := alloc(1, 8), alloc(2, 2)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				w.Locality((g + i) % 4).Moving(lay.BlockAt(uint32(i % 8)).Block())
				w.Locality((g + i) % 4).Moving(repl.BlockAt(uint32(i % 2)).Block())
				if err := w.DumpState(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			w.HeatTop(4)
			w.HeatEpoch()
			w.HeatSampled()
			w.HeatLoads()
		}
	}()

	for round := 0; round < 3; round++ {
		must(w.ReplicateLive(repl, 2))
		for d := uint32(0); d < 8; d++ {
			g := lay.BlockAt(d)
			w.MustWait(w.Proc(int(d)%4).Call(g, bump, nil))
			w.MustWait(w.Proc(int(d+1)%4).Get(g, 8))
			if d%2 == 0 {
				w.MustWait(w.Proc(0).Migrate(g, (round+int(d))%4))
			}
		}
		w.MustWait(w.Proc(1).Get(repl.BlockAt(0), 8))
		if st := MigrateStatus(w.MustWait(w.Proc(0).Migrate(repl.BlockAt(uint32(round%2)), 1))); st != MigrateOK {
			t.Fatalf("round %d: replicated block's migrate status %d", round, st)
		}
		w.MustWait(w.Proc(3).Get(repl.BlockAt(uint32(round%2)), 8))
		must(w.Unreplicate(repl))
		if st := MigrateStatus(w.MustWait(w.Proc(0).Migrate(repl.BlockAt(uint32(round%2)), 2))); st != MigrateOK {
			t.Fatalf("round %d: migrate-back status %d", round, st)
		}

		tmp := alloc(round, 4)
		must(w.ReplicateLive(tmp, 1))
		w.MustWait(w.Proc(0).Migrate(tmp.BlockAt(1), (round+2)%4))
		w.MustWait(w.Proc(2).FreeAsync(tmp))
		tmp = alloc(3-round, 2)
		must(w.ReplicateLive(tmp, 2))
		must(w.Free(tmp))
	}

	// A pinned migration: the pollers and the stall watchdog read the pin
	// until it is released.
	release := w.InjectMigrationStall()
	g := lay.BlockAt(1)
	owner := w.Locality(1)
	moved := w.Proc(0).Migrate(g, 2)
	eventually(t, "the block to be pinned", func() bool { return owner.Moving(g.Block()) })
	if !w.AwaitHealth(WatchWarn, 10*time.Second) {
		t.Fatalf("the stall watchdog never saw the pin: %+v", w.Health())
	}
	release()
	if st := MigrateStatus(w.MustWait(moved)); st != MigrateOK {
		t.Fatalf("stalled migrate status %d", st)
	}
	stop.Store(true)
	wg.Wait()
	if w.HeatSampled() == 0 {
		t.Fatal("the heat sampler saw none of the traffic")
	}
	if owner.Moving(g.Block()) {
		t.Fatal("the released block is still pinned")
	}
}

// TestAGASTablesClaimedUnderChurn: the software AGAS tables (home
// directory, translation cache, tombstones, replica routes) and the block
// store have one writer, the rank, and take no lock. On agas-sw and pgas
// worlds, pollers read every rank's tables through its owner (World.claim,
// and DumpState's claims) while drivers replicate and unreplicate, read
// through the replica routes, migrate (agas-sw), Free and FreeAsync
// replicated blocks, and make and free LCOs both from the driver (claimed)
// and from an action on the LCO's own rank (Ctx.NewAndGate, freed from the
// gate's OnFire). Under -race any access off the owner is reported.
func TestAGASTablesClaimedUnderChurn(t *testing.T) {
	for _, mode := range []Mode{AGASSW, PGAS} {
		t.Run(mode.String(), func(t *testing.T) {
			w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: EngineGo})
			var lay gas.Layout
			ack := w.Register("ack", func(c *Ctx) { c.Continue(nil) })
			fan := w.Register("fan", func(c *Ctx) {
				gate, cont, l := c.NewAndGate(3), c.P.CTarget, c.World().Locality(c.Rank())
				gate.OnFire(func([]byte) {
					c.World().FreeLCO(gate)
					l.SendParcel(&parcel.Parcel{Action: ALCOSet, Target: cont})
				})
				for i := uint32(0); i < 3; i++ {
					c.CallCC(lay.BlockAt(i), ack, nil, ALCOSet, gate.G)
				}
			})
			w.Start()
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			var err error
			lay, err = w.AllocCyclic(0, 64, 8)
			must(err)

			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					must(w.DumpState(io.Discard))
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					l := w.locs[i%4]
					w.claim(l.rank, func() {
						l.store.Range(func(*gas.Block) bool { return true })
						l.space.Directory().Entries()
						l.space.Directory().ReplicaEntries()
						if c := l.space.Cache(); c != nil {
							c.Stats()
						}
						if ts := l.space.Tombstones(); ts != nil {
							ts.Len()
						}
						switch sp := l.space.(type) {
						case *swSpace:
							sp.routes.Len()
						case *pgasSpace:
							sp.routes.Len()
						}
					})
				}
			}()

			for round := 0; round < 3; round++ {
				repl, err := w.AllocLocal(round%4, 64, 2)
				must(err)
				must(w.ReplicateLive(repl, 2))
				for r := 0; r < 4; r++ {
					w.MustWait(w.Proc(r).Get(repl.BlockAt(uint32(r%2)), 8))
					fut := w.Proc(r).Call(w.LocalityGVA((r+round)%4), fan, nil)
					w.MustWait(fut)
					w.FreeLCO(fut)
				}
				if w.caps.Migration {
					w.MustWait(w.Proc(0).Migrate(lay.BlockAt(uint32(round)), (round+2)%4))
					w.MustWait(w.Proc(1).Migrate(repl.BlockAt(0), (round+1)%4))
				}
				w.MustWait(w.Proc(2).Put(repl.BlockAt(1), []byte{byte(round)}))
				must(w.Unreplicate(repl))
				must(w.ReplicateLive(repl, 1))
				w.MustWait(w.Proc(3).FreeAsync(repl))

				tmp, err := w.AllocBlocked(3-round, 64, 4)
				must(err)
				must(w.ReplicateLive(tmp, 3))
				w.MustWait(w.Proc(round).Get(tmp.BlockAt(2), 8))
				must(w.Free(tmp))
			}
			stop.Store(true)
			wg.Wait()
			if n := w.ReplicatedBlocks(); n != 0 {
				t.Fatalf("%d replica sets left after every replicated layout was freed", n)
			}
		})
	}
}

// TestScrapeDuringStopDrain: Stop stops rank 0's mailbox with a backlog
// of sends still queued, which its actor drains after the stop. A claim
// against that stopped, draining mailbox waits out each turn and takes
// the token for its read (goExec.claim), so a scraper reading rank 0's
// counters and NIC table in a loop never reads beside the drain's
// writes. Under -race a read beside a turn is reported.
func TestScrapeDuringStopDrain(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineGo})
	noop := w.Register("noop", func(*Ctx) {})
	w.Start()
	l, e := w.locs[0], w.locs[0].exec.(*goExec)
	started, release := make(chan struct{}), make(chan struct{})
	w.Proc(0).Run(func() { close(started); <-release })
	<-started
	for i := 0; i < 2000; i++ {
		b := gas.BlockID(1<<20 + i) // a route learned beside each send: the drain writes the table too
		w.Proc(0).Run(func() {
			l.SendParcel(&parcel.Parcel{Action: noop, Target: w.LocalityGVA(1)})
			w.net.State(0, func(st *netsim.TransState) { st.Table.Update(b, 1) })
		})
	}

	var stopped atomic.Bool
	scraped := make(chan int)
	go func() {
		n := 0
		for ; !stopped.Load(); n++ {
			w.RankStats(0)
			w.Stats()
		}
		scraped <- n
	}()
	stopDone := make(chan struct{})
	go func() { w.Stop(); close(stopDone) }()
	eventually(t, "rank 0's mailbox to stop with its backlog queued", func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.stopped && e.n > 0
	})
	close(release)
	<-stopDone
	stopped.Store(true)
	if n := <-scraped; n == 0 {
		t.Fatal("the scraper never read")
	}
	if rs := w.RankStats(0); rs.Loc.ParcelsSent != 2000 || rs.NICTable < 2000 {
		t.Fatalf("rank 0 sent %d parcels and holds %d table entries, want the whole backlog's 2000 of each", rs.Loc.ParcelsSent, rs.NICTable)
	}
}

// TestMembershipViewsUnderChurn: each rank's membership view has one
// writer, the rank's token holder, which installs the views the verdict
// table publishes and reads them with no lock (NIC fences, host
// translation's redirect and lost check, the suspicion sweep's corpse
// gate, the trusted epoch). Ranks 0-2 put and get through their views
// while drivers kill rank 3 and fire probes at it (and at a live rank,
// which answers) until its death is declared, join it back, and retire
// and rejoin rank 4, twice; pollers read MemberState, Stats,
// MembershipStats and DumpState throughout, and the pulse's watchdogs
// read the verdict table. Under -race any access off the owner is
// reported.
func TestMembershipViewsUnderChurn(t *testing.T) {
	for _, mode := range []Mode{AGASSW, AGASNM} {
		t.Run(mode.String(), func(t *testing.T) { membershipViewsChurn(t, mode) })
	}
}

func membershipViewsChurn(t *testing.T, mode Mode) {
	w := testWorld(t, Config{Ranks: 5, Mode: mode, Engine: EngineGo, Reliability: relStress,
		Pulse: PulseConfig{Enabled: true, Period: 10 * netsim.Microsecond}})
	w.Start()
	alloc := func(home int, n uint32) gas.Layout {
		t.Helper()
		lay, err := w.AllocLocal(home, 64, n)
		if err != nil {
			t.Fatal(err)
		}
		return lay
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// lay stays on ranks 0-2; doomed lives on rank 3, replicated, so its
	// reads redirect to the promoted master once rank 3 dies; retiring
	// lives on rank 4 and drains to the survivors when it retires.
	lay, doomed, retiring := alloc(0, 3), alloc(3, 1), alloc(4, 2)
	must(w.ReplicateLive(doomed, 2))

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				g := lay.BlockAt(uint32(i % 3))
				if _, err := w.Wait(w.Proc(r).Put(g, []byte{byte(i)})); err != nil {
					t.Error(err)
					return
				}
				if _, err := w.Wait(w.Proc(r).Get(g, 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for r := 0; r < 5; r++ {
				w.MemberState(r)
			}
			w.Stats()
			w.MembershipStats()
			if err := w.DumpState(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const rounds = 2
	for round := 0; round < rounds; round++ {
		w.Kill(3)
		l0 := w.Locality(0)
		w.claim(0, func() {
			w.mem.beginProbe(l0, 3)
			w.mem.beginProbe(l0, 1)
		})
		if !w.AwaitMember(3, MemberDead, 20*time.Second) {
			t.Fatalf("round %d: rank 3 never declared dead: %+v", round, w.MembershipStats())
		}
		for r := 0; r < 3; r++ {
			w.MustWait(w.Proc(r).Get(doomed.BlockAt(0), 8))
		}
		must(w.Join(3))
		if !w.AwaitMember(3, MemberAlive, 20*time.Second) {
			t.Fatalf("round %d: rank 3 never rejoined: %v", round, w.MemberState(3))
		}
		must(w.Retire(4))
		for d := uint32(0); d < 2; d++ {
			w.MustWait(w.Proc(int(d)).Get(retiring.BlockAt(d), 8))
		}
		must(w.Join(4))
		if !w.AwaitMember(4, MemberAlive, 20*time.Second) {
			t.Fatalf("round %d: rank 4 never rejoined: %v", round, w.MemberState(4))
		}
	}
	stop.Store(true)
	wg.Wait()
	if ms := w.MembershipStats(); ms.Deaths != rounds || ms.Retires != rounds || ms.Joins != 2*rounds || ms.Suspicions < rounds {
		t.Fatalf("membership %+v, want %d deaths and retires, %d joins and a suspicion per death", ms, rounds, 2*rounds)
	}
}

// TestGoNICFillsWholeCacheLines holds goNIC to whole cache lines (256 B,
// 48 of them pad): a field added or removed must keep it so, padding it if need
// be, or neighbouring NICs share a cache line again.
func TestGoNICFillsWholeCacheLines(t *testing.T) {
	var n goNIC
	if s := unsafe.Sizeof(n); unsafe.Sizeof(uintptr(0)) == 8 && s%64 != 0 {
		t.Fatalf("goNIC is %d B, not a whole number of 64 B lines: pad it", s)
	}
}

// TestGoExecStopWhileExec races stop() against concurrent producers on
// every enqueue lane (Exec, execMsg, ExecMsg). Work enqueued before
// stop must drain; work enqueued after must be dropped silently — and
// nothing may deadlock or race.
func TestGoExecStopWhileExec(t *testing.T) {
	for round := 0; round < 20; round++ {
		e := newGoExec()
		var ran atomic.Int64
		e.onMsg = func(m *netsim.Message) { ran.Add(1) }
		e.onStep = func(_ msgOp, m *netsim.Message) { ran.Add(1) }
		e.start()

		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 500; i++ {
					switch i % 3 {
					case 0:
						e.Exec(0, func() { ran.Add(1) })
					case 1:
						e.execMsg(&netsim.Message{Kind: kParcel, Block: gas.BlockID(g)})
					default:
						e.ExecMsg(0, opHostMsg, &netsim.Message{Kind: kParcel, Block: gas.BlockID(g)})
					}
				}
			}(g)
		}
		close(start)
		e.stop() // races the producers by design
		wg.Wait()
		after := ran.Load()
		// Enqueues after stop must be dropped: nothing may sneak in once
		// stop returned and the loop exited.
		e.Exec(0, func() { t.Error("Exec after stop ran") })
		e.execMsg(&netsim.Message{Kind: kParcel})
		e.ExecMsg(0, opHostMsg, &netsim.Message{Kind: kParcel})
		if got := ran.Load(); got != after {
			t.Fatalf("round %d: work ran after stop (%d -> %d)", round, after, got)
		}
	}
}

// TestCoalescerConcurrentFlush races the coalescer's three writers: the
// actor adding parcels, delayed-flush timers, and driver goroutines
// hammering FlushAll — all meeting on rank 0's token, which FlushAll
// claims, while batches inject from whichever goroutine holds it.
func TestCoalescerConcurrentFlush(t *testing.T) {
	cfg := coalCfg(4)
	cfg.Engine = EngineGo
	w := testWorld(t, cfg)
	incr := w.Register("incr", func(c *Ctx) {
		d := c.Local(c.P.Target)
		d[0]++
		c.Continue(nil)
	})
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				w.Locality(0).FlushAll()
			}
		}()
	}
	const rounds, perRound = 20, 32
	for r := 0; r < rounds; r++ {
		gate := w.NewAndGate(0, perRound)
		w.Proc(0).Run(func() {
			for i := 0; i < perRound; i++ {
				w.Locality(0).SendParcel(&parcel.Parcel{
					Action: incr, Target: lay.BlockAt(uint32(i % 8)),
					CAction: ALCOSet, CTarget: gate.G,
				})
			}
		})
		w.Locality(0).FlushAll()
		w.MustWait(gate)
	}
	stop.Store(true)
	wg.Wait()
	var total int
	for i := uint32(0); i < 8; i++ {
		got := w.MustWait(w.Proc(0).Get(lay.BlockAt(i), 1))
		total += int(got[0])
	}
	if total != rounds*perRound {
		t.Fatalf("ran %d increments, want %d", total, rounds*perRound)
	}
}

// TestBatchScatterRacesMigration streams coalesced batches at blocks
// that migrate continuously: chanNet's scatter split reads routing state
// while migration commits rewrite it. Every parcel must still execute
// exactly once (re-routes are legal under the race; loss is not).
func TestBatchScatterRacesMigration(t *testing.T) {
	cfg := coalCfg(4)
	cfg.Engine = EngineGo
	cfg.Ranks = 4
	w := testWorld(t, cfg)
	var ran atomic.Int64
	bump := w.Register("bump", func(c *Ctx) {
		ran.Add(1)
		c.Continue(nil)
	})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	const rounds, perRound = 12, 24
	for r := 0; r < rounds; r++ {
		gate := w.NewAndGate(0, perRound)
		w.Proc(0).Run(func() {
			for i := 0; i < perRound; i++ {
				w.Locality(0).SendParcel(&parcel.Parcel{
					Action: bump, Target: lay.BlockAt(uint32(i % 4)),
					CAction: ALCOSet, CTarget: gate.G,
				})
			}
		})
		// Migrations race the in-flight batches of the same round.
		for b := uint32(0); b < 4; b++ {
			w.MustWait(w.Proc(2).Migrate(lay.BlockAt(b), (r+int(b))%4))
		}
		w.Locality(0).FlushAll()
		w.MustWait(gate)
	}
	if got := ran.Load(); got != rounds*perRound {
		t.Fatalf("ran %d parcels, want %d", got, rounds*perRound)
	}
}

// TestPipelinedPutsRaceActor pipelines puts from several driver
// goroutines at once — their claims of rank 0's token race each other,
// rank 0's actor running the acks, and the destination's DMA machinery.
func TestPipelinedPutsRaceActor(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineGo})
	w.Start()
	lay, err := w.AllocLocal(1, 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	const writers, puts = 4, 200
	var done sync.WaitGroup
	var acked atomic.Int64
	for g := 0; g < writers; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			p := w.Proc(0)
			dst := lay.BlockAt(uint32(g))
			buf := []byte{byte(g)}
			var local sync.WaitGroup
			for i := 0; i < puts; i++ {
				local.Add(1)
				p.PutAsync(dst, buf, func() {
					acked.Add(1)
					local.Done()
				})
			}
			local.Wait()
		}(g)
	}
	done.Wait()
	if got := acked.Load(); got != writers*puts {
		t.Fatalf("%d acks, want %d", got, writers*puts)
	}
}

// TestGoExecRingGrowth forces the ring through several doublings with a
// wrapped head and checks strict FIFO order survives.
func TestGoExecRingGrowth(t *testing.T) {
	e := newGoExec()
	var mu sync.Mutex
	var got []int
	// Fill without a consumer so the ring must grow (initial capacity 64),
	// then start and drain.
	const n = 1000
	for i := 0; i < n; i++ {
		i := i
		e.Exec(0, func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		})
	}
	e.start()
	e.stop()
	if len(got) != n {
		t.Fatalf("drained %d of %d tasks", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %d", i, v)
		}
	}
}
