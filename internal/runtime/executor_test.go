package runtime

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nmvgas/internal/gas"
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
	if len(tb.Rows) < 15 {
		t.Fatalf("stats table has %d rows", len(tb.Rows))
	}
}

// TestLocalityRunsOneActionAtATime pins the invariant migration relies on
// instead of a per-block quiescence count: a locality runs one action at
// a time on both engines — one event stream per rank on DES, one token
// holder on the goroutine engine. Every action holds its locality's
// in-flight flag while it yields; eight drivers (goroutines, on the
// goroutine engine) hammer the blocks of one locality while migrations
// spread them over the others. On the goroutine engine eight more drivers
// issue blocking one-sided ops against the same blocks, whose requests
// and completions drain idle localities inline — so inline drains race
// the actors' drains, and an inliner runs actions too.
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
				wg.Add(2)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						w.MustWait(call(g + i*drivers))
					}
				}(g)
				go func(g int) {
					defer wg.Done()
					p, put, got := w.Proc(g%ranks), []byte{byte(g), 1, 2, 3, 4, 5, 6, 7}, make([]byte, 8)
					for i := 0; i < calls; i++ {
						at := lay.BlockAt(uint32(i % nblocks)).WithOffset(uint32(8 * g))
						p.PutWait(at, put)
						if p.GetWaitInto(at, got); !bytes.Equal(got, put) {
							t.Errorf("driver %d read %v back, wrote %v", g, got, put)
						}
					}
				}(g)
			}
			for i := 0; i < 2*nblocks; i++ {
				w.MustWait(migrate(i))
			}
			wg.Wait()
			if inlineDrains(w) == 0 {
				t.Fatal("no waited message drained a locality inline")
			}
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

// inlined reads how many drains of rank r's mailbox a waited message ran
// on its delivering goroutine; inlineDrains sums it over the world.
func inlined(w *World, r int) int {
	e := w.locs[r].exec.(*goExec)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inlined
}

func inlineDrains(w *World) (n int) {
	for r := range w.locs {
		n += inlined(w, r)
	}
	return n
}

// TestWaitedOpParksWhenOwnerBusy is the other order of the waiter's
// handshake: a task holds the owner's token, so the request queues and
// the caller parks before its completion. The completion then runs on
// the owner's actor once the task returns, and must wake the parked
// caller with the bytes in place.
func TestWaitedOpParksWhenOwnerBusy(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineGo})
	w.Start()
	blk, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, want := w.Proc(0), []byte("parked!!")
	p.PutWait(blk.BlockAt(0), want)
	started, release := make(chan struct{}), make(chan struct{})
	w.Proc(1).Run(func() {
		close(started)
		<-release
	})
	<-started
	before, got, done := inlined(w, 1), make([]byte, len(want)), make(chan struct{})
	go func() {
		p.GetWaitInto(blk.BlockAt(0), got)
		close(done)
	}()
	// The op table belongs to rank 0's token, so a task there reads it.
	parked := func() bool {
		l, found := w.locs[0], make(chan bool, 1)
		w.Proc(0).Run(func() {
			for _, s := range l.ops.slots {
				if s.st.wait != nil && s.st.wait.state.Load() == waitParked {
					found <- true
					return
				}
			}
			found <- false
		})
		return <-found
	}
	for deadline := time.Now().Add(10 * time.Second); !parked(); time.Sleep(time.Millisecond) {
		select {
		case <-done:
			t.Fatal("get completed while the owner's token was held")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the caller never parked")
		}
	}
	close(release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the parked caller was never woken")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("parked get read %q, want %q", got, want)
	}
	if n := inlined(w, 1); n != before {
		t.Fatalf("owner drained inline %d times while a task held its token", n-before)
	}
}

// TestWaitedOpDrainsIdleActorInline: against idle localities a blocking
// one-sided op runs on its caller's goroutine — a remote op drains the
// owner for the request and the requester for the completion, a local one
// drains its own locality through the host door — and when a long action
// holds the owner's token the op is queued and completes through the
// actor instead.
func TestWaitedOpDrainsIdleActorInline(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineGo})
	started, release := make(chan struct{}), make(chan struct{})
	hold := w.Register("hold", func(c *Ctx) {
		close(started)
		<-release
	})
	w.Start()
	remote, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	local, err := w.AllocLocal(0, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, put, got := w.Proc(0), []byte("inline!!"), make([]byte, 8)
	for _, c := range []struct {
		name   string
		g      gas.GVA
		drains [2]int // inline drains at rank 0, rank 1
	}{
		{"remote", remote.BlockAt(0), [2]int{1, 1}},
		{"local", local.BlockAt(0), [2]int{1, 0}},
	} {
		for _, op := range []string{"put", "get"} {
			before := [2]int{inlined(w, 0), inlined(w, 1)}
			if op == "put" {
				p.PutWait(c.g, put)
			} else if p.GetWaitInto(c.g, got); !bytes.Equal(got, put) {
				t.Fatalf("%s get read %q", c.name, got)
			}
			if d := [2]int{inlined(w, 0) - before[0], inlined(w, 1) - before[1]}; d != c.drains {
				t.Errorf("%s %s: inline drains at ranks 0, 1: %v, want %v", c.name, op, d, c.drains)
			}
		}
	}

	// The owner's token is held by a running action: the request queues,
	// and the actor serves it once the action returns.
	w.Proc(0).Invoke(remote.BlockAt(0), hold, nil)
	<-started
	before, done := inlined(w, 1), make(chan struct{})
	go func() {
		p.PutWait(remote.BlockAt(0), []byte("by actor"))
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("put completed while the owner's token was held")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-done
	if n := inlined(w, 1); n != before {
		t.Fatalf("owner drained inline %d times while its actor held the token", n-before)
	}
	if p.GetWaitInto(remote.BlockAt(0), got); string(got) != "by actor" {
		t.Fatalf("read %q after the queued put", got)
	}
}

// TestStopDuringInlineDrain stops a world while four goroutines loop
// blocking puts and gets, so Stop races inline drains: it must return,
// and no task — on an actor or an inliner — may run once it has.
func TestStopDuringInlineDrain(t *testing.T) {
	const ranks = 4
	for round := 0; round < 10; round++ {
		w := testWorld(t, Config{Ranks: ranks, Mode: AGASNM, Engine: EngineGo})
		var stopped atomic.Bool
		var late atomic.Int64
		for _, l := range w.locs {
			e := l.exec.(*goExec)
			onMsg, onStep := e.onMsg, e.onStep
			e.onMsg = func(m *netsim.Message) {
				if stopped.Load() {
					late.Add(1)
				}
				onMsg(m)
			}
			e.onStep = func(op msgOp, m *netsim.Message) {
				if op == opHostMsg && stopped.Load() { // the mailbox step; the others run in place
					late.Add(1)
				}
				onStep(op, m)
			}
		}
		w.Start()
		lay, err := w.AllocCyclic(0, 64, 2*ranks)
		if err != nil {
			t.Fatal(err)
		}
		var ops atomic.Int64
		for g := 0; g < 4; g++ {
			// Never joined: a client whose op Stop dropped stays blocked.
			go func(g int) {
				p, buf := w.Proc(g), make([]byte, 8)
				for i := 0; !stopped.Load(); i++ {
					at := lay.BlockAt(uint32(i % (2 * ranks))).WithOffset(uint32(8 * g))
					if i%2 == 0 {
						p.PutWait(at, buf)
					} else {
						p.GetWaitInto(at, buf)
					}
					ops.Add(1)
				}
			}(g)
		}
		for ops.Load() < 200 {
			goruntime.Gosched()
		}
		returned := make(chan struct{})
		go func() {
			w.Stop()
			stopped.Store(true)
			close(returned)
		}()
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Stop did not return", round)
		}
		time.Sleep(5 * time.Millisecond)
		if n := late.Load(); n != 0 {
			t.Fatalf("round %d: %d tasks ran after Stop returned", round, n)
		}
		if inlineDrains(w) == 0 {
			t.Fatalf("round %d: no inline drain before Stop", round)
		}
	}
}

// TestNoTimerRunsAfterStop stops a goroutine-engine world with every
// kind of runtime timer out and checks that none of their callbacks runs
// once Stop has returned.
func TestNoTimerRunsAfterStop(t *testing.T) {
	if err := stopWithTimersOut(); err != nil {
		t.Fatal(err)
	}
}

// stopWithTimersOut arms every runtime timer on a goroutine-engine world:
// the pulse (World.after) and a retransmit to a killed rank
// (Executor.After), each seen firing once, then a delayed coalescer flush
// (Executor.After) and a membership probe on a live peer (World.after).
// It calls Stop, waits three probe rounds, and reports any probe round,
// pulse tick, traced step or flush that happened after Stop returned.
func stopWithTimersOut() error {
	w, err := NewWorld(Config{Ranks: 3, Mode: AGASNM, Engine: EngineGo, Reliability: relStress,
		Coalesce: CoalesceConfig{MaxParcels: 8}, Pulse: PulseConfig{Enabled: true}})
	if err != nil {
		return err
	}
	noop := w.Register("noop", func(*Ctx) {})
	var traced atomic.Int64
	w.SetTracer(func(TraceEvent) { traced.Add(1) })
	w.Start()
	lay, err := w.AllocLocal(2, 64, 1)
	if err != nil {
		return err
	}
	w.Kill(2)
	w.Proc(0).PutAsync(lay.BlockAt(0), []byte{1}, nil)
	deadline := time.Now().Add(10 * time.Second)
	for w.PulseCount() == 0 || w.DeliveryStats().Retransmits == 0 {
		if time.Now().After(deadline) {
			w.Stop()
			return fmt.Errorf("before Stop: %d pulse ticks and %d retransmits after 10s, want both > 0",
				w.PulseCount(), w.DeliveryStats().Retransmits)
		}
		time.Sleep(100 * time.Microsecond)
	}
	w.Proc(0).Invoke(w.LocalityGVA(1), noop, nil)
	l := w.locs[0]
	w.claim(0, func() { w.mem.beginProbe(l, 1) }) // a probe leaves from the prober's token
	w.Stop()

	type state struct {
		probing  bool
		rounds   int
		pulses   uint64
		traced   int64
		flushGen uint64
	}
	read := func() state {
		s := state{pulses: w.PulseCount(), traced: traced.Load()}
		w.mem.mu.Lock()
		if pr := w.mem.probing[1]; pr != nil {
			s.probing, s.rounds = true, pr.rounds
		}
		w.mem.mu.Unlock()
		s.flushGen = l.coal.bufs[1].gen // Stop has waited out every token holder
		return s
	}
	before := read()
	time.Sleep(3*goWall(probeTimeout) + goWall(probeTimeout)/2)
	if after := read(); after != before {
		return fmt.Errorf("timers ran after Stop returned: %+v -> %+v", before, after)
	}
	return nil
}
