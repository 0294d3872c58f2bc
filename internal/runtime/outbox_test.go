package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// The outbox (goroutine engine): while a turn holds a rank's token, the
// rank's non-waited sends are staged and leave, in send order, before
// the token is freed (goExec.turn, chanNet.Send). These tests pin its
// rules; CI runs them under -race -tags msgpoison.

// eventually polls cond until it holds or ten seconds pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestTurnSendsKeepPairOrder: one turn sends n parcels (staged), a waited
// put (posted at once, behind what is staged) and n more parcels to one
// destination, which must apply them in that order. Each parcel records
// its sequence number and whether the put had landed when it ran.
func TestTurnSendsKeepPairOrder(t *testing.T) {
	const n = 64
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineGo})
	type rec struct {
		seq    byte
		landed bool
	}
	var log []rec // appended on rank 1's token only
	var ran atomic.Int64
	record := w.Register("record", func(c *Ctx) {
		log = append(log, rec{c.P.Payload[0], c.Local(c.P.Target)[0] == 1})
		ran.Add(1)
	})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, l := lay.BlockAt(0), w.locs[0]
	wt := &waiter{ch: make(chan struct{}, 1)}
	w.Proc(0).Run(func() {
		for i := 0; i < 2*n; i++ {
			if i == n {
				l.issue(l.putReq(g, []byte{1}), opState{wait: wt})
			}
			l.SendParcel(&parcel.Parcel{Action: record, Target: g, Payload: []byte{byte(i)}})
		}
	})
	if wt.state.CompareAndSwap(waitPending, waitParked) {
		<-wt.ch
	}
	eventually(t, "every parcel to run", func() bool { return ran.Load() == 2*n })
	for i, r := range log {
		if int(r.seq) != i || r.landed != (i >= n) {
			t.Fatalf("record %d of %d: %+v, want seq %d with the put landed %v", i, len(log), r, i, i >= n)
		}
	}
}

// TestTurnHandsOffOncePerDestination: a turn that sends k parcels spread
// over d destination ranks locks each destination's mailbox once.
func TestTurnHandsOffOncePerDestination(t *testing.T) {
	const ranks, k = 4, 30
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			w := testWorld(t, Config{Ranks: ranks, Mode: mode, Engine: EngineGo})
			var ran atomic.Int64
			tally := w.Register("tally", func(*Ctx) { ran.Add(1) })
			w.Start()
			var targets []gas.GVA
			for r := 1; r < ranks; r++ {
				lay, err := w.AllocLocal(r, 64, 1)
				if err != nil {
					t.Fatal(err)
				}
				targets = append(targets, lay.BlockAt(0))
			}
			handoffs := func(r int) int {
				e := w.locs[r].exec.(*goExec)
				e.mu.Lock()
				defer e.mu.Unlock()
				return e.handoffs
			}
			var before [ranks]int
			for r := range before {
				before[r] = handoffs(r)
			}
			l := w.locs[0]
			w.Proc(0).Run(func() {
				for i := 0; i < k; i++ {
					l.SendParcel(&parcel.Parcel{Action: tally, Target: targets[i%len(targets)]})
				}
			})
			eventually(t, "every parcel to run", func() bool { return ran.Load() == k })
			for r := 1; r < ranks; r++ {
				if d := handoffs(r) - before[r]; d != 1 {
					t.Errorf("rank %d: %d mailbox hand-offs for one turn's %d parcels, want 1", r, d, k/(ranks-1))
				}
			}
		})
	}
}

// TestOffTokenSendsPostAtOnce: senders that do not hold a rank's token —
// Proc.PutAsync, Proc.GetWaitInto, Locality.FlushAll from a driver, and
// a probe round from a World.after timer, as after a kill — send at rank
// 0 while its actor is mid-turn. Each send leaves at once (rank 0's NIC
// counts it before the call returns, or while the caller is parked) and
// is served while the turn still runs; everything completes after it.
func TestOffTokenSendsPostAtOnce(t *testing.T) {
	w := testWorld(t, Config{Ranks: 3, Mode: AGASNM, Engine: EngineGo, Coalesce: CoalesceConfig{MaxParcels: 8}})
	var counted atomic.Int64
	count := w.Register("count", func(*Ctx) { counted.Add(1) })
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, p, l := lay.BlockAt(0), w.Proc(0), w.locs[0]
	sent := func(r int) uint64 { return w.net.Stats(r)[netsim.CntSent] }
	dma := func() uint64 { return w.net.Stats(1)[netsim.CntDMADelivered] }

	// The held turn first buffers a parcel in the coalescer, so only
	// FlushAll can send it before the turn ends.
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	t.Cleanup(free) // before the world's Stop, which waits for the turn
	p.Run(func() {
		l.SendParcel(&parcel.Parcel{Action: count, Target: g})
		close(started)
		<-release
	})
	<-started

	s, d := sent(0), dma()
	var putDone atomic.Bool
	p.PutAsync(g, []byte("at once!"), func() { putDone.Store(true) })
	if sent(0) != s+1 {
		t.Fatal("Proc.PutAsync's request did not leave before the call returned")
	}
	eventually(t, "the put to be served mid-turn", func() bool { return dma() == d+1 })

	got, gotten := make([]byte, 8), make(chan struct{})
	go func() {
		p.GetWaitInto(g, got)
		close(gotten)
	}()
	eventually(t, "the get to be served mid-turn", func() bool { return sent(0) == s+2 && dma() == d+2 })

	l.FlushAll()
	if sent(0) != s+3 {
		t.Fatal("FlushAll's batch did not leave before the call returned")
	}
	eventually(t, "the flushed parcel to run mid-turn", func() bool { return counted.Load() == 1 })

	probed, pong := make(chan struct{}), sent(2)
	w.after(0, func() {
		w.mem.beginProbe(l, 2)
		close(probed)
	})
	<-probed
	if sent(0) != s+3+probePings {
		t.Fatal("the timer's probe round did not leave before it returned")
	}
	eventually(t, "rank 2 to answer the probe mid-turn", func() bool { return sent(2) == pong+probePings })

	free()
	<-gotten
	if string(got) != "at once!" {
		t.Fatalf("get read %q", got)
	}
	eventually(t, "the put's completion", putDone.Load)
	eventually(t, "the probe to clear", func() bool { return w.MemberState(2) == MemberAlive })
}
