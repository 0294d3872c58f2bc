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

// The outbox (goroutine engine): while an actor's turn holds a rank's
// token, the rank's non-waited sends are staged and leave, in send order,
// before the token is freed (goExec.turn, chanNet.Send). Every sender
// holds the token; a driver claims it (goExec.claim). These tests pin the
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
				l.issue(&rmaReq{kind: kPutReq, target: g, data: []byte{1}}, opState{wait: wt})
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

// TestOffTokenCallsClaimTheToken: the calls a driver makes off the token
// — Proc.PutAsync, Proc.GetWaitInto and Locality.FlushAll — claim rank 0's
// token (goExec.claim). On an idle locality the call runs on the caller's
// goroutine, counts as an inline drain, and its request leaves before it
// returns. While a task holds the token each call waits behind it and
// sends nothing, and so does a probe handed to the locality: the probe's
// pings leave from the prober's token like every other send. Once the
// turn ends every call returns, its request having left, the probe's
// pings leave and are answered, and everything completes.
func TestOffTokenCallsClaimTheToken(t *testing.T) {
	w := testWorld(t, Config{Ranks: 3, Mode: AGASNM, Engine: EngineGo, Coalesce: CoalesceConfig{MaxParcels: 8}})
	var counted atomic.Int64
	count := w.Register("count", func(*Ctx) { counted.Add(1) })
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, p, l, e := lay.BlockAt(0), w.Proc(0), w.locs[0], w.locs[0].exec.(*goExec)
	// Rank 0 sends only when the test makes it, so its Sent counter is
	// read past the token (a claim would wait out the held turn below);
	// claimed reads the counter through the token.
	sent := func(r int) uint64 { return w.net.Stats(r)[netsim.CntSent] }
	claimed := func(r int) uint64 { return w.RankStats(r).NIC[netsim.CntSent] }

	// Idle: the caller runs the call and one turn itself.
	s, drains := sent(0), inlined(w, 0)
	var putDone atomic.Bool
	p.PutAsync(g, []byte("at once!"), func() { putDone.Store(true) })
	if sent(0) != s+1 || inlined(w, 0) != drains+1 {
		t.Fatalf("idle PutAsync: %d sent, %d drains at rank 0, want 1 and 1", sent(0)-s, inlined(w, 0)-drains)
	}
	got := make([]byte, 8)
	if p.GetWaitInto(g, got); string(got) != "at once!" || sent(0) != s+2 {
		t.Fatalf("idle GetWaitInto read %q with %d sent, want the put's bytes and 2", got, sent(0)-s)
	}
	eventually(t, "the idle put's completion", putDone.Load)

	// Busy: the held turn first buffers a parcel in the coalescer, so
	// only FlushAll or the turn's own timer can send it.
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
	s = sent(0)
	putDone.Store(false)
	put, get, flushed := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		p.PutAsync(g, []byte("queued!!"), func() { putDone.Store(true) })
		close(put)
	}()
	go func() {
		p.GetWaitInto(g, make([]byte, 8))
		close(get)
	}()
	go func() {
		l.FlushAll()
		close(flushed)
	}()
	eventually(t, "three claimants to wait for the token", func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.claims == 3
	})
	for _, c := range []chan struct{}{put, get, flushed} {
		select {
		case <-c:
			t.Fatal("a claim returned while a task held the token")
		default:
		}
	}
	if sent(0) != s {
		t.Fatalf("%d sent while the token was held, want 0", sent(0)-s)
	}

	probed, pong := make(chan struct{}), claimed(2)
	l.exec.hand(func() {
		w.mem.beginProbe(l, 2)
		close(probed)
	})
	select {
	case <-probed:
		t.Fatal("a probe ran while a task held the prober's token")
	case <-time.After(20 * time.Millisecond):
	}
	if sent(0) != s {
		t.Fatalf("%d sent while the token was held, want 0", sent(0)-s)
	}

	free()
	<-put
	<-get
	<-flushed
	<-probed
	eventually(t, "the probe's pings, the put, the get and the batch to leave", func() bool { return claimed(0) == s+probePings+3 })
	eventually(t, "rank 2 to answer the probe", func() bool { return claimed(2) == pong+probePings })
	eventually(t, "the queued put's completion", putDone.Load)
	eventually(t, "the flushed parcel to run", func() bool { return counted.Load() == 1 })
	if p.GetWaitInto(g, got); string(got) != "queued!!" {
		t.Fatalf("read %q after the queued put", got)
	}
	eventually(t, "the probe to clear", func() bool { return w.MemberState(2) == MemberAlive })
}
