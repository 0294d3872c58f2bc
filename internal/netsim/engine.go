// Package netsim is the simulated network substrate: a deterministic
// discrete-event engine, a LogGP-style cost model, and a NIC model with an
// on-NIC translation table.
//
// The paper's system ran over RDMA hardware (Photon middleware on
// InfiniBand / uGNI). This package is the documented substitution: it
// reproduces the *architectural* properties that matter for the paper's
// claims — where translation happens (host software vs NIC), how many
// wire hops and host round-trips each policy costs, NIC occupancy, and
// translation-table capacity — on a simulated clock that Go's garbage
// collector cannot perturb.
package netsim

import (
	"fmt"
	"math"
	"math/bits"
)

// VTime is simulated time in nanoseconds since the start of the run.
type VTime int64

// Common durations.
const (
	Nanosecond  VTime = 1
	Microsecond VTime = 1000
	Millisecond VTime = 1000 * 1000
	Second      VTime = 1000 * 1000 * 1000
)

func (t VTime) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(t))
}

// Micros returns t in microseconds as a float, for table output.
func (t VTime) Micros() float64 { return float64(t) / float64(Microsecond) }

// event is one scheduled unit of work: a closure (fn — the cold lane:
// timers, driver and barrier tasks, tests) or a typed message step parked
// in the owning engine's slab (see AtRankMsg). tie breaks equal-time
// events into a strict total order; the rank names the locality whose
// state the work touches (-1 for driver/barrier work): the sharded engine
// routes on it and stamps the events the work schedules in turn. The
// record stays at 32 bytes and four fields (rank and slab handle share
// who): the compiler keeps structs of up to four fields in registers
// through push and pop — a fifth cost the closure lane 11 → 31 ns per event.
type event struct {
	at  VTime
	tie uint64
	who uint64 // rank (int32) high, 1-based slab handle low; handle 0 = closure event
	fn  func()
}

func evWho(rank, handle int32) uint64 { return uint64(uint32(rank))<<32 | uint64(uint32(handle)) }

func (ev event) rank() int32   { return int32(ev.who >> 32) }
func (ev event) handle() int32 { return int32(uint32(ev.who)) }

// MsgSink is a long-lived per-rank object (a NIC, a host executor) that
// consumes typed message events: op names the step, in the sink's own
// numbering.
type MsgSink interface {
	HandleMsg(op uint8, m *Message)
}

// step is a typed message step: run op of m at sink. The zero step means
// "none" (a closure event). As a slab slot, next chains the free list
// (1-based handles, 0 ends it).
type step struct {
	sink MsgSink
	m    *Message
	op   uint8
	next int32
}

// evHeap is a binary min-heap of the events of one instant, which tie
// alone orders; an index-typed slice, so no interface boxing per push.
type evHeap []event

func (q *evHeap) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for ; i > 0 && ev.tie < h[(i-1)/2].tie; i = (i - 1) / 2 {
		h[i] = h[(i-1)/2]
	}
	h[i] = ev
	*q = h
}

func (q *evHeap) pop() event {
	h := *q
	root, n := h[0], len(h)-1
	last := h[n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].tie < h[c].tie {
			c++
		}
		if last.tie < h[c].tie {
			break
		}
		h[i], i = h[c], c
	}
	h[i] = last
	h[n].fn = nil // release the closure
	*q = h[:n]
	return root
}

// slot is one slab entry of an eventQueue: a pending event and the link
// that chains it into its wheel slot's or bucket's list or, once popped,
// the free list (index 0 ends a list; slot 0 is never used).
type slot struct {
	ev   event
	next int32
}

// minQueueCap is the storage, in event slots, below which eventQueue
// never gives any back: bursts smaller than this are steady-state noise,
// not worth a reallocation to reclaim.
const minQueueCap = 256

// pageBits sets the wheel's page: 4 096 ns, which holds the wire, NIC and
// host delays that make up most of what the DES schedules (on des_scale
// 81 % of pushes, on des_churn 89 %, land within 4.1 µs of the clock).
const (
	pageBits = 12
	pageLen  = 1 << pageBits
)

// eventQueue is a monotone queue (DESIGN.md §9): the engine never
// schedules before the time it last popped, so an event only needs
// ordering against the others once the clock reaches its neighbourhood.
// Events of the current instant (at == last) sit in front, ordered by
// tie. A later event in last's page waits, unordered, in the wheel slot
// for its exact time; pop finds the lowest occupied slot with two
// TrailingZeros. An event in a later page waits in radix bucket
// k = bits.Len64((at ^ last) >> pageBits): k-1 is the highest page bit
// where its time departs from last. When the wheel runs dry, pop takes
// the lowest non-empty bucket (it holds the earliest events), moves last
// to that bucket's least time and relinks its events: those in the new
// page go into wheel slots, the rest agree with last on page bit k-1 too
// and land in a strictly lower bucket. Push is O(1), pop amortised O(1)
// with no sift and no copy, and ns hops and ms timers share one
// structure. Pops ascend in (at, tie) exactly.
type eventQueue struct {
	front evHeap
	slab  []slot // recycled through free, so a steady queue allocates nothing
	free  int32
	last  VTime // the instant front holds; nothing pending is earlier
	n     int   // pending events, front included
	// The wheel over last's page: wheel[s] heads the events at page|s,
	// occ has bit s set when that list is non-empty, sum bit w when occ[w]
	// is. The buckets of later pages: mask has bit k set when bucket k is
	// non-empty, and binv[k] is the complement of its least time (what
	// settling it sets last to, and what peekAt reads), a maximum so that
	// zero means empty and place needs no branch.
	sum, mask uint64
	head      [64]int32
	binv      [64]uint64
	occ       [pageLen / 64]uint64
	wheel     [pageLen]int32
}

func (q *eventQueue) push(ev event) {
	if ev.at < q.last {
		// At/atRank refuse t < now and now ≥ last: only a bug gets here.
		panic(fmt.Sprintf("netsim: event at %v pushed behind the queue's clock %v", ev.at, q.last))
	}
	q.n++
	d := uint64(ev.at ^ q.last)
	if d == 0 {
		q.front.push(ev)
		return
	}
	i := q.free
	if i != 0 {
		q.free = q.slab[i].next
		q.slab[i].ev = ev
	} else {
		if len(q.slab) == 0 {
			q.slab = append(q.slab, slot{})
		}
		i = int32(len(q.slab))
		q.slab = append(q.slab, slot{ev: ev})
	}
	q.place(i, d, ev.at)
}

// place chains slab slot i, holding an event at time at, d = at ^ last,
// into its wheel slot or bucket.
func (q *eventQueue) place(i int32, d uint64, at VTime) {
	if d >= pageLen {
		k := bits.Len64(d>>pageBits) & 63
		q.binv[k] = max(q.binv[k], ^uint64(at))
		q.slab[i].next = q.head[k]
		q.head[k] = i
		q.mask |= 1 << k
		return
	}
	s := int(at) & (pageLen - 1)
	q.slab[i].next = q.wheel[s]
	q.wheel[s] = i
	q.occ[s>>6] |= 1 << (s & 63)
	q.sum |= 1 << (s >> 6)
}

// take empties slab slot i onto the free list and returns its event.
func (q *eventQueue) take(i int32) event {
	ev := q.slab[i].ev
	q.slab[i].ev.fn = nil // release the closure
	q.slab[i].next = q.free
	q.free = i
	return ev
}

// never is the time of the next event of an empty queue.
const never VTime = math.MaxInt64

// firstSlot returns the lowest occupied wheel slot. q.sum != 0.
func (q *eventQueue) firstSlot() int {
	w := bits.TrailingZeros64(q.sum) & 63
	return (w<<6 | bits.TrailingZeros64(q.occ[w])) & (pageLen - 1)
}

// peekAt returns the time of the event pop would return, without moving
// last: a shard that has drained its window peeks an event beyond the
// window's end, and the merge barrier may then push earlier cross-shard
// events.
func (q *eventQueue) peekAt() VTime {
	switch {
	case len(q.front) > 0:
		return q.last
	case q.sum != 0:
		return q.last&^(pageLen-1) | VTime(q.firstSlot())
	case q.mask == 0:
		return never
	}
	return VTime(^q.binv[bits.TrailingZeros64(q.mask)&63])
}

// pop removes and returns the least event in (at, tie) order. q.n > 0.
func (q *eventQueue) pop() event {
	q.n--
	if len(q.front) == 0 {
		if i := q.settle(); i != 0 {
			return q.take(i)
		}
	}
	return q.front.pop()
}

// settle advances last to the earliest pending time and empties its
// wheel slot, first relinking the lowest bucket into the wheel when the
// page is done. One event at the new instant is the common case and the
// answer itself: settle returns its slab slot and front is never
// touched. Several go to front and settle returns 0.
func (q *eventQueue) settle() int32 {
	if c := cap(q.slab) + cap(q.front); c >= minQueueCap && q.n < c/8 {
		q.shrink(c / 4)
	}
	if q.sum == 0 {
		k := bits.TrailingZeros64(q.mask) & 63
		last := VTime(^q.binv[k])
		q.last = last
		i := q.head[k]
		q.head[k], q.binv[k] = 0, 0
		q.mask &^= 1 << k
		if q.slab[i].next == 0 {
			return i // a lone bucket: the other shallow-queue fast path
		}
		for i != 0 {
			nx, at := q.slab[i].next, q.slab[i].ev.at
			q.place(i, uint64(at^last), at)
			i = nx
		}
	}
	s := q.firstSlot()
	q.last = q.last&^(pageLen-1) | VTime(s)
	i := q.wheel[s]
	q.wheel[s] = 0
	if q.occ[s>>6] &^= 1 << (s & 63); q.occ[s>>6] == 0 {
		q.sum &^= 1 << (s >> 6)
	}
	if q.slab[i].next == 0 {
		return i
	}
	for i != 0 {
		nx := q.slab[i].next
		q.front.push(q.take(i))
		i = nx
	}
	return 0
}

// shrink moves the queue into a slab of c slots and drops front's array,
// giving back what a drained burst left behind. Retention is a property
// of the whole queue (slab plus front: at most 8× the live size, above
// the floor) judged while front is empty, because a front heap that
// shrank on its own drain would reallocate at every large instant.
func (q *eventQueue) shrink(c int) {
	old := *q
	*q = eventQueue{last: old.last, slab: make([]slot, 1, c)}
	old.each(q.push)
	q.n = old.n // pop has already counted the event it is settling for
}

// each calls fn for every pending event, in no particular order.
func (q *eventQueue) each(fn func(event)) {
	for _, ev := range q.front {
		fn(ev)
	}
	for _, heads := range [][]int32{q.wheel[:], q.head[:]} {
		for _, i := range heads {
			for ; i != 0; i = q.slab[i].next {
				fn(q.slab[i].ev)
			}
		}
	}
}

// Engine is a discrete-event simulator. In the classic (default)
// configuration all simulated work — NIC activity, host handlers,
// runtime actions — runs as events on one goroutine, which makes every
// run bit-for-bit deterministic.
//
// An Engine can also be one face of a sharded ParEngine (see par.go):
// either the driver façade the harness holds (Run/RunUntil execute
// conservative-lookahead windows across all shards) or a per-shard
// engine owning one heap that a worker drains. The scheduling API is
// identical in both configurations, so the NIC and runtime layers are
// written once.
type Engine struct {
	now VTime
	seq uint64
	// slab parks the typed steps of the events in q; free heads its
	// free-slot list. Slots are recycled, so a steady-state engine
	// schedules message events without allocating, and the slab only grows
	// to the high-water mark of simultaneously pending typed events.
	slab []step
	free int32
	// processed counts executed events, exposed for sanity checks and the
	// engine-overhead ablation.
	processed uint64

	// Sharded-mode wiring (nil/zero on a classic engine). shard is -1 on
	// the driver façade; curRank is the rank of the executing event (-1
	// between events and in driver context) and stamps the invariant
	// ordering key of everything that event schedules.
	par     *ParEngine
	shard   int32
	curRank int32

	// Free holds the spare messages and wire buffers of the ranks this
	// engine face runs (every rank on a classic engine, its shard's under
	// sharding); the driver façade's stays unused.
	Free Recycler

	q eventQueue // last: its wheel is most of the engine's size
}

// NewEngine returns a classic single-threaded engine at simulated time
// zero.
func NewEngine() *Engine { return &Engine{shard: -1, curRank: -1} }

// Shutdown stops a sharded engine's worker goroutines; a classic engine
// has none. The engine must be quiescent (no window in flight); further
// parallel windows after Shutdown panic.
func (e *Engine) Shutdown() {
	if e.par == nil {
		return
	}
	for _, w := range e.par.workers {
		close(w.start)
	}
	e.par.workers = nil
}

// RankEngine returns the engine face that schedules rank's events: the
// rank's shard engine under sharding, the engine itself otherwise.
func (e *Engine) RankEngine(rank int) *Engine {
	if e.par == nil {
		return e
	}
	return e.par.shards[e.par.shardOf(rank)]
}

// Now returns the current simulated time: event time on a classic or
// shard engine, the last barrier time on a sharded driver façade.
func (e *Engine) Now() VTime { return e.now }

// Processed returns the number of events executed so far (summed across
// shards on a sharded driver façade).
func (e *Engine) Processed() uint64 {
	if e.par != nil && e.shard < 0 {
		return e.par.processedAll()
	}
	return e.processed
}

// Pending returns the number of scheduled-but-unexecuted events (summed
// across shard heaps, inboxes, and barrier tasks on a driver façade).
func (e *Engine) Pending() int {
	if e.par != nil && e.shard < 0 {
		return e.par.pendingAll()
	}
	return e.q.n
}

// PendingByRank counts scheduled-but-unexecuted events attributed to
// each rank into counts (one slot per rank); driver and barrier work
// (rank -1) is not attributed. It is an on-demand O(pending) scan over
// the heaps, so the hot scheduling path pays nothing for the tap — the
// watchdog that calls it runs at pulse cadence, not per event.
func (e *Engine) PendingByRank(counts []int) {
	for i := range counts {
		counts[i] = 0
	}
	if e.par != nil && e.shard < 0 {
		e.par.pendingByRank(counts)
		return
	}
	e.q.each(func(ev event) { countRank(ev.rank(), counts) })
}

func countRank(rank int32, counts []int) {
	if r := int(rank); r >= 0 && r < len(counts) {
		counts[r]++
	}
}

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past is a protocol bug and panics. On a sharded engine the event is
// attributed to the currently executing rank; use AtRank to schedule
// onto a specific rank (required from driver context, where no rank is
// executing).
func (e *Engine) At(t VTime, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("netsim: scheduling at %v before now %v", t, e.now))
	}
	if e.par == nil {
		e.seq++
		e.q.push(event{at: t, tie: e.seq, who: evWho(-1, 0), fn: fn})
		return
	}
	if e.shard < 0 {
		// Driver façade: the task runs serially at the first barrier whose
		// time reaches t, between windows, where it may touch any rank.
		e.par.barrierPush(e, t, fn)
		return
	}
	e.push(t, e.par.nextTie(e), e.curRank, fn, step{})
}

// After schedules fn to run d after the current simulated time.
func (e *Engine) After(d VTime, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// AtRank schedules fn at absolute time t attributed to rank. On a
// classic engine this is At. On a sharded engine it is the only legal
// way to schedule across ranks: a cross-rank event must land at or
// beyond the current window's end (the conservative-lookahead
// guarantee), and events bound for another shard travel through a
// lock-free inbox merged at the next barrier.
func (e *Engine) AtRank(rank int, t VTime, fn func()) {
	e.atRank(rank, t, fn, step{})
}

// AtRankMsg is AtRank's typed lane: at time t, rank's sink runs step op
// of message m. The message is the event — no closure is built, and in
// steady state nothing is allocated. Ordering is exactly AtRank's: typed
// and closure events draw ties from the same counters.
func (e *Engine) AtRankMsg(rank int, t VTime, sink MsgSink, op uint8, m *Message) {
	e.atRank(rank, t, nil, step{sink: sink, m: m, op: op})
}

func (e *Engine) atRank(rank int, t VTime, fn func(), s step) {
	if e.par == nil {
		if t < e.now {
			panic(fmt.Sprintf("netsim: scheduling at %v before now %v", t, e.now))
		}
		// Same scheduling semantics as At, but the event carries its rank
		// so backlog taps (PendingByRank) can attribute it.
		e.seq++
		e.push(t, e.seq, int32(rank), fn, s)
		return
	}
	e.par.atRank(e, rank, t, fn, s)
}

// push queues an event on this engine's heap, parking a typed step in
// the slab. The caller owns e's heap (its own event context, or a
// quiescent driver phase).
func (e *Engine) push(at VTime, tie uint64, rank int32, fn func(), s step) {
	var h int32
	if s.sink != nil {
		if h = e.free; h == 0 {
			e.slab = append(e.slab, s)
			h = int32(len(e.slab))
		} else {
			e.free = e.slab[h-1].next
			e.slab[h-1] = s
		}
	}
	e.q.push(event{at: at, tie: tie, who: evWho(rank, h), fn: fn})
}

// fireMsg runs the typed step parked in slab slot h, freeing the slot
// first so the step's own next hop reuses it. The drain loops test the
// handle themselves and call the closure lane's fn directly: routing both
// lanes through one function costs the closure lane a second call per
// event (measured +2 ns on an 18 ns event).
func (e *Engine) fireMsg(h int32) {
	s := e.slab[h-1]
	e.slab[h-1] = step{next: e.free}
	e.free = h
	s.sink.HandleMsg(s.op, s.m)
}

// AfterRank schedules fn d after now, attributed to rank (see AtRank).
func (e *Engine) AfterRank(rank int, d VTime, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	e.AtRank(rank, e.now+d, fn)
}

// AtBarrier defers fn to the next merge barrier, where it runs serially
// and may touch any rank's state (membership transitions, epoch bumps,
// recovery). On a classic engine there is no barrier and no concurrency,
// so fn runs immediately.
func (e *Engine) AtBarrier(fn func()) {
	if e.par == nil {
		fn()
		return
	}
	e.par.atBarrier(e, fn)
}

// fire pops e's next event and runs it; the caller resets curRank when
// its drain ends. Every drain loop shares this body and hoists its own
// par/shard/emptiness tests out of it.
func (e *Engine) fire() {
	ev := e.q.pop()
	e.now = ev.at
	e.curRank = ev.rank()
	e.processed++
	if h := ev.handle(); h != 0 {
		e.fireMsg(h)
	} else {
		ev.fn()
	}
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	if e.par != nil && e.shard < 0 {
		e.par.run()
		return
	}
	for e.q.n > 0 {
		e.fire()
	}
	e.curRank = -1
}

// RunUntil executes events until done reports true or the queue drains.
// It returns whether done was satisfied. On a classic engine the
// predicate is evaluated after every event; on a sharded driver façade
// it is evaluated at merge barriers (the only points where the
// predicate's view of the world is well-defined), so completion is
// quantized to the lookahead window.
func (e *Engine) RunUntil(done func() bool) bool { return e.RunUntilStride(done, 1) }

// RunUntilStride is RunUntil checking done only every stride events, for
// hot drain loops where a closure call per event is measurable (large
// worlds push tens of millions of events per run). A stride below 1 is
// treated as 1; on a sharded driver façade the stride is ignored, since
// the predicate already runs only at barriers.
func (e *Engine) RunUntilStride(done func() bool, stride int) bool {
	if e.par != nil && e.shard < 0 {
		return e.par.runUntil(done)
	}
	stride = max(stride, 1)
	for !done() {
		for i := 0; i < stride && e.q.n > 0; i++ {
			e.fire()
		}
		e.curRank = -1
		if e.q.n == 0 {
			return done()
		}
	}
	return true
}
