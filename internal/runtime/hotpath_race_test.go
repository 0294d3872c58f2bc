package runtime

import (
	"sync"
	"sync/atomic"
	"testing"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// Race coverage for the hot-path concurrency surface: the sharded
// goNIC translation state is read by many sender goroutines while
// migrations rewrite it, and goExec's ring buffer is stopped while producers still push.
// These tests exist to fail under -race (the CI test job runs the whole
// package with -race); without it they are cheap smoke tests.

// TestGoNICStateConcurrentChurn hammers translation lookups and route
// reads from many goroutines while migration churn and user actions on
// the locality actors rewrite routes and tables underneath them.
func TestGoNICStateConcurrentChurn(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineGo})
	bump := w.Register("bump", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocLocal(1, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	// A separate block set absorbs the raw table/route writes: scribbling
	// bogus owners for blocks that carry live traffic would (correctly)
	// trip the misrouting invariants.
	scratch, err := w.AllocLocal(2, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	cn := w.net.(*chanNet)

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Readers: raw translation lookups and authoritative route reads
	// across every rank's NIC state.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				r, st := (g+i)%4, cn.nics[(g+i)%4]
				b := lay.BlockAt(uint32(i % 8)).Block()
				resolve := func(b gas.BlockID) {
					w.net.State(r, b, func(ts *netsim.TransState) {
						ts.Resolve(&netsim.Message{Dst: netsim.ByGVA, Block: b, Target: gas.New(1, b, 0)})
					})
				}
				resolve(b)
				st.Forward(b)
				st.ReadRoute(b)
				peekNICTable(w, r, b)
				resolve(scratch.BlockAt(uint32(i % 8)).Block())
				w.NICTableLen(r)
			}
		}(g)
	}
	// Writers: direct table/route churn, as PushUpdates and commits do.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				b := scratch.BlockAt(uint32(i % 8)).Block()
				w.net.State((g+i)%4, b, func(ts *netsim.TransState) { ts.Table.Update(b, i%4) })
				w.net.State((g+i+1)%4, b, func(ts *netsim.TransState) { ts.InstallRoute(b, i%4) })
				if i%7 == 0 {
					w.mirror.ClearResident(i%4, b)
				}
			}
		}(g)
	}
	// Traffic + migration churn on the actors themselves.
	for round := 0; round < 6; round++ {
		for d := uint32(0); d < 8; d++ {
			g := lay.BlockAt(d)
			w.MustWait(w.Proc(int(d)%4).Call(g, bump, nil))
			if d%2 == 0 {
				w.MustWait(w.Proc(0).Migrate(g, (round+int(d))%4))
			}
		}
	}
	stop.Store(true)
	wg.Wait()
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
// actor adding parcels, delayed-flush timer goroutines, and driver
// goroutines hammering FlushAll — all contending on the per-destination
// buffer locks while batches inject inline from whichever goroutine wins.
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
// goroutines at once — the inline PutAsync issue path races itself and
// the destination actor's DMA/ack machinery, including coalesced ack
// vectors.
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
