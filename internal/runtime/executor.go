package runtime

import (
	"sync"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// Executor serializes work attributed to one locality's host CPU.
type Executor interface {
	// Exec schedules fn after charging cost to the host timeline. On the
	// DES engine the host is modelled as a single core: tasks start when
	// the core is free and the core stays busy for cost. On the
	// goroutine engine cost is ignored and fn runs on the mailbox's
	// token holder (see goExec).
	Exec(cost netsim.VTime, fn func())
	// Charge extends the host-busy window from inside a running task
	// (simulated compute time). No-op on the goroutine engine.
	Charge(extra netsim.VTime)
	// ExecMsg is Exec's typed lane for the per-message path: it schedules
	// step op of message m (see Locality.handleMsg) with no closure. On
	// the DES engine the message itself becomes the event. The goroutine
	// engine posts a host delivery to the mailbox and runs the other
	// steps where they stand, on the token holder.
	ExecMsg(cost netsim.VTime, op msgOp, m *netsim.Message)
	// After runs fn as this locality's work d from now: an event on the
	// rank's own timeline under DES, a wall timer (d × goTimeScale) that
	// posts fn to the mailbox on the goroutine engine. A stopped mailbox
	// drops it, so no fn runs after World.Stop returns.
	After(d netsim.VTime, fn func())
	// claim runs a driver's fn as the locality's running handler (see
	// goExec.claim); hand runs fn as its handler without waiting for the
	// token, queued on the mailbox. Both run fn at once on DES, where
	// drivers run between events, and report false when a stopped
	// mailbox ran nothing.
	claim(fn func()) bool
	hand(fn func()) bool

	// The rank's clocks, which code inside the rank reads (driver and
	// barrier code reads the port's: under sharding the façade's last
	// barrier, not the running event). now is Ctx.Now (0 on the goroutine
	// engine); simNow runs intervals given in simulated time
	// (retransmission deadlines, coalescer gaps), on the goroutine engine
	// wall time scaled back through goTimeScale so scheduling jitter does
	// not masquerade as loss; latNow is the latency clock in nanoseconds.
	now() netsim.VTime
	simNow() netsim.VTime
	latNow() int64
	// global runs fn where it may touch any rank's state: at the next
	// merge barrier under sharding, at once otherwise. memberStep runs a
	// membership step that reaches across ranks as this rank's work (a
	// barrier task under sharding); false means a stopped mailbox
	// dropped it.
	global(fn func())
	memberStep(fn func()) bool
	// putAsync and awaitOp issue Proc.PutAsync and Proc.await's op: a
	// scheduled driver operation on DES (awaitOp then runs the engine
	// until the completion), inline under a claim of the token on the
	// goroutine engine.
	putAsync(dst gas.GVA, data []byte, done func())
	awaitOp(op string, r rmaReq, wt *waiter)
}

// msgOp names one step of a message's life on a locality's host.
type msgOp uint8

const (
	opNICRecv   msgOp = iota // transport delivery awaiting the NIC receive path (goroutine engine only)
	opHostMsg                // host receive: onHostMsg
	opInject                 // hand to the network from host context
	opRunParcel              // decode and run a user-action parcel
	opFlush                  // inject a coalescer batch: Locality.inject to m.Dst
)

// task is one mailbox entry on the goroutine engine. The common case is a
// typed message (m != nil) delivered by the transport or a local send —
// no capturing closure, no per-message allocation. fn covers everything
// else (timers, control actions, test hooks).
type task struct {
	fn func()
	m  *netsim.Message
	op msgOp // which step of m (opNICRecv or opHostMsg)
}

// execBatch bounds how many tasks a drain claims per lock acquisition:
// large enough to amortize the lock, small enough to keep stop() latency,
// memory and an inline drain's detour bounded.
const execBatch = 128

// goExec is one locality's mailbox, a growable power-of-two ring buffer
// drained up to execBatch tasks per lock acquisition, and its execution
// token. Exactly one goroutine at a time holds the token (running) and
// drains: the locality's actor, a goroutine that has just delivered a
// waited message while the actor was idle (see post), or a driver acting
// for the locality (see claim). So the locality runs one action at a
// time, on whichever goroutine holds the token, and its message-path
// state (op table, coalescer, outbox) is touched only by the holder.
type goExec struct {
	mu      sync.Mutex
	cond    *sync.Cond // the actor waits here for work and for the token
	free    *sync.Cond // claimants wait here for the token
	ring    []task     // len(ring) is a power of two
	head    int        // index of the oldest queued task
	n       int        // number of queued tasks
	running bool       // the token is held
	stopped bool
	claims  int // goroutines waiting in claim; they go before the actor
	wg      sync.WaitGroup

	// inline lets waited messages drain an idle mailbox on the delivering
	// goroutine (set where payloads ride pooled wire buffers: no
	// reliability layer, no fault injector); inlined counts those drains
	// and claims' turns, handoffs postRun's locks of mu, for tests (read
	// under mu).
	inline  bool
	inlined int

	// The typed delivery handlers, wired by newChanNet before the actor
	// starts: onMsg is the NIC receive path (chanNet.arrive), onStep every
	// host-side step (Locality.handleMsg), flush the transport for this
	// rank's staged sends (chanNet.send).
	onMsg  func(*netsim.Message)
	onStep func(msgOp, *netsim.Message)

	// batch is turn's claim, touched only by the token holder and cleared
	// entry by entry as it runs, so no drain zeroes a buffer. New fields go
	// after it: moving it onto a fresh cache line cost a blocking get 9 %.
	batch [execBatch]task

	// The outbox, open while an actor's turn runs (chanNet.Send); like
	// batch, only the token holder touches it.
	open     bool
	out      []*netsim.Message
	flush    func([]*netsim.Message)
	handoffs int

	// rec is the rank's Recycler (the token holder's). A turn parks what
	// it holds above RecycleKeep in spare, under mu, where a sender handing
	// work here tops its own lists up (topUp), and where rec refills when
	// it runs dry mid-turn (unpark).
	rec   netsim.Recycler
	spare netsim.Recycler

	l *Locality // the locality whose work this mailbox runs
}

func newGoExec() *goExec {
	e := &goExec{ring: make([]task, 64)}
	e.cond = sync.NewCond(&e.mu)
	e.free = sync.NewCond(&e.mu)
	e.rec.Dry = e.unpark
	return e
}

// unpark refills the token holder's dry Recycler from the spares its
// turns parked, so a turn that sends more than RecycleKeep messages takes
// them from there rather than the heap.
func (e *goExec) unpark() {
	e.mu.Lock()
	e.spare.Give(&e.rec, 0, netsim.RecycleCap)
	e.mu.Unlock()
}

func (e *goExec) start() {
	e.wg.Add(1)
	go e.loop()
}

// depth reports the current mailbox backlog (metrics sampling).
func (e *goExec) depth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// push appends t to the ring, growing it when full; the caller wakes the
// actor once for its batch. Caller holds e.mu.
func (e *goExec) push(t task) {
	if e.n == len(e.ring) {
		bigger := make([]task, len(e.ring)*2)
		p := copy(bigger, e.ring[e.head:])
		copy(bigger[p:], e.ring[:e.head])
		e.ring = bigger
		e.head = 0
	}
	e.ring[(e.head+e.n)&(len(e.ring)-1)] = t
	e.n++
}

// turn runs one batch for the token holder, claimed into e.batch under
// e.mu (held on entry and return) and run outside it, and frees the
// token, to a waiting claimant first; an actor's turn stages its sends
// and flushes them first.
func (e *goExec) turn(stage bool) {
	k := min(e.n, execBatch)
	mask := len(e.ring) - 1
	for i := 0; i < k; i++ {
		j := (e.head + i) & mask
		e.batch[i] = e.ring[j]
		e.ring[j] = task{}
	}
	e.head = (e.head + k) & mask
	e.n -= k
	e.mu.Unlock()
	e.open = stage
	for i := range e.batch[:k] {
		t := &e.batch[i]
		switch {
		case t.m == nil:
			t.fn()
		case t.op == opNICRecv:
			e.onMsg(t.m)
		default:
			e.onStep(t.op, t.m)
		}
		*t = task{}
	}
	if stage {
		e.open = false
		e.flushOut()
	}
	e.mu.Lock()
	e.rec.Give(&e.spare, netsim.RecycleKeep, netsim.RecycleCap)
	e.running = false
	if e.claims > 0 {
		e.free.Signal()
	}
}

// flushOut sends what is staged, in order.
func (e *goExec) flushOut() {
	if len(e.out) > 0 {
		e.flush(e.out)
		e.out = e.out[:0]
	}
}

// loop is the actor: it takes the token whenever work is queued and no
// inliner holds it, and exits once stopped with the mailbox empty.
func (e *goExec) loop() {
	defer e.wg.Done()
	e.mu.Lock()
	for {
		for e.running || e.claims > 0 || (e.n == 0 && !e.stopped) {
			e.cond.Wait()
		}
		if e.n == 0 {
			e.mu.Unlock()
			return
		}
		e.running = true
		e.turn(true)
	}
}

// stop drains queued work and stops the actor, which waits on the cond
// for an inliner or claimant to hand the token back. A stopped mailbox
// drops new work, and once drained its claims run nothing.
func (e *goExec) stop() {
	e.mu.Lock()
	e.stopped = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}

// post queues t and reports whether it did: work arriving after stop is
// dropped. A waited t — the request of a blocking one-sided op, or its
// completion — finding the token free takes it instead: the posting
// goroutine runs one turn itself (t included, behind whatever was
// queued). It never waits for the token: a held one means t queues. A
// poster holding a rank's token tops that rank's Recycler rc up (topUp).
func (e *goExec) post(t task, waited bool, rc *netsim.Recycler) bool {
	e.mu.Lock()
	if rc != nil {
		e.topUp(rc, 1)
	}
	queued := !e.stopped
	switch {
	case !queued:
	case waited && e.inline && !e.running:
		e.running = true
		e.push(t)
		e.drain()
	default:
		e.push(t)
		if !e.running {
			e.cond.Signal()
		}
	}
	e.mu.Unlock()
	return queued
}

// claim is how a driver acts for the locality (Proc's one-sided calls,
// FlushAll, World.claim): it runs fn as the token holder on the calling
// goroutine, then one turn for whatever fn queued, as soon as the token
// is free (before the actor). A stopped mailbox still draining its queue
// is claimed like a running one; a drained one runs nothing and reports
// false, and no turn can start there again. A holder that claims waits
// for itself.
func (e *goExec) claim(fn func()) bool {
	e.mu.Lock()
	e.claims++
	for e.running {
		e.free.Wait()
	}
	e.claims--
	if e.stopped && e.n == 0 {
		e.cond.Signal() // the actor may be waiting out the claims
		if e.claims > 0 {
			e.free.Signal() // and so may the next claimant
		}
		e.mu.Unlock()
		return false
	}
	e.hold(fn)
	return true
}

// tryClaim is claim for a caller that polls rather than waits (the stop
// drain's chanNet.noneMoving): it takes the token only when no one holds
// it, waits for it or has stopped the mailbox, and reports whether fn
// ran.
func (e *goExec) tryClaim(fn func()) bool {
	e.mu.Lock()
	if e.running || e.claims > 0 || e.stopped {
		e.mu.Unlock()
		return false
	}
	e.hold(fn)
	return true
}

// hold runs fn as the token holder, then one turn for whatever fn
// queued. The caller found the token free under e.mu, which hold
// releases.
func (e *goExec) hold(fn func()) {
	e.running = true
	e.mu.Unlock()
	fn()
	e.mu.Lock()
	e.drain()
	e.mu.Unlock()
}

// drain is the turn of a goroutine holding the token outside the actor
// loop (post, claim), under e.mu; it wakes the actor if work remains.
func (e *goExec) drain() {
	e.inlined++
	e.turn(false)
	if e.n > 0 || e.stopped {
		e.cond.Signal()
	}
}

// topUp gives a poster's Recycler rc, which handed k messages here, up to
// RecycleKeep spares per list from what this mailbox parked, and k more
// if its lists ran dry since the last top-up (a burst). Caller holds e.mu.
func (e *goExec) topUp(rc *netsim.Recycler, k int) {
	upTo := netsim.RecycleKeep
	if rc.Dried > 0 {
		upTo, rc.Dried = min(netsim.RecycleCap, upTo+k), 0
	}
	e.spare.Give(rc, 0, upTo)
}

// postRun is execMsg, in order and under one lock and wake-up, for each
// non-waited message of ms bound for rank, clearing its slot (rc as in
// post).
func (e *goExec) postRun(ms []*netsim.Message, rank int, rc *netsim.Recycler) {
	e.mu.Lock()
	e.handoffs++
	k := 0
	for i, m := range ms {
		if m != nil && m.Dst == rank {
			if !e.stopped {
				e.push(task{m: m})
			}
			ms[i], k = nil, k+1
		}
	}
	e.topUp(rc, k)
	if !e.running {
		e.cond.Signal()
	}
	e.mu.Unlock()
}

func (e *goExec) Exec(_ netsim.VTime, fn func()) { e.post(task{fn: fn}, false, nil) }
func (e *goExec) hand(fn func()) bool            { return e.post(task{fn: fn}, false, nil) }
func (e *goExec) memberStep(fn func()) bool      { return e.hand(fn) }

// execMsg posts a transport-delivered message for the NIC receive path
// without allocating a closure.
func (e *goExec) execMsg(m *netsim.Message) { e.post(task{m: m}, m.Waited, nil) }

func (e *goExec) ExecMsg(_ netsim.VTime, op msgOp, m *netsim.Message) {
	if op == opHostMsg {
		e.post(task{m: m, op: op}, m.Waited, nil)
		return
	}
	e.onStep(op, m)
}

func (e *goExec) After(d netsim.VTime, fn func()) {
	wallAfter(d, func() { e.Exec(0, fn) })
}

// The clocks read wall time since World creation, with no simulated
// clock to read (Ctx.Now is 0); global runs fn at once, where the token
// holder's own locking applies.
func (e *goExec) Charge(netsim.VTime)  {}
func (e *goExec) now() netsim.VTime    { return 0 }
func (e *goExec) simNow() netsim.VTime { return netsim.VTime(e.latNow() / goTimeScale) }
func (e *goExec) latNow() int64        { return int64(time.Since(e.l.w.epoch)) }
func (e *goExec) global(fn func())     { fn() }

// putAsync and awaitOp claim the token and issue inline, so drivers
// pipeline puts with no mailbox round trip per op (against a busy
// locality they wait out the holder's turn), and a waited op then drains
// each idle locality it reaches (post): against idle owners it runs from
// issue through serve to completion with no hand-off.
func (e *goExec) putAsync(dst gas.GVA, data []byte, done func()) {
	e.claim(func() { e.l.PutAsync(dst, data, done) })
}

func (e *goExec) awaitOp(_ string, r rmaReq, wt *waiter) {
	e.claim(func() { e.l.issue(&r, opState{wait: wt}) })
}
