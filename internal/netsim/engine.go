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
// state the work touches (-1 for driver/barrier work), which the sharded
// engine uses to route the event to the right shard heap and to stamp
// events the work schedules in turn. This is the record the heap sifts,
// so it stays at 32 bytes and four fields (rank and slab handle share
// who): the compiler keeps structs of up to four fields in registers
// through push and pop and copies larger ones through memory — a fifth
// field cost the closure lane 11 → 31 ns per event.
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

// evLess orders events by (at, tie); tie is unique, so the order is a
// strict total order and pop sequence is independent of heap shape.
func evLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.tie < b.tie
}

// minQueueCap is the floor below which eventQueue never shrinks its
// backing array: bursts smaller than this are steady-state noise, not
// worth a reallocation to reclaim.
const minQueueCap = 64

// eventQueue is an index-typed 4-ary min-heap over a flat event slice.
// Compared to container/heap it pays no interface-boxing allocation per
// push and half the tree height per sift; popped slots are zeroed and
// reused in place on the next push, so the backing array doubles as the
// event free-list and a steady-state engine allocates nothing per event
// beyond the scheduled closure itself (and nothing at all on the typed
// message lane).
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the closure: the slot becomes free-list space
	h = h[:n]
	if cap(h) > minQueueCap && n < cap(h)/4 {
		// A drained burst would otherwise pin its high-water backing array
		// (and its zeroed closure slots) forever. Halving keeps headroom
		// for the next burst while bounding the waste at 4× live size.
		s := make(eventQueue, n, cap(h)/2)
		copy(s, h)
		h = s
	}
	*q = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if evLess(h[j], h[m]) {
					m = j
				}
			}
			if !evLess(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return root
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
	q   eventQueue
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
}

// NewEngine returns a classic single-threaded engine at simulated time
// zero.
func NewEngine() *Engine { return &Engine{shard: -1, curRank: -1} }

// Sharded reports whether this engine is a face of a sharded ParEngine.
func (e *Engine) Sharded() bool { return e.par != nil }

// Par returns the underlying ParEngine (nil on a classic engine).
func (e *Engine) Par() *ParEngine { return e.par }

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
	return len(e.q)
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
	countEvents(e.q, counts)
}

// countEvents attributes a batch of events to their ranks.
func countEvents(evs []event, counts []int) {
	for i := range evs {
		countRank(evs[i].rank(), counts)
	}
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
	e.q.push(event{at: t, tie: e.par.nextTie(e), who: evWho(e.curRank, 0), fn: fn})
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

// Step executes the next event, returning false when the queue is empty.
// On a sharded driver façade it advances one whole window instead.
func (e *Engine) Step() bool {
	if e.par != nil && e.shard < 0 {
		return e.par.advance()
	}
	if len(e.q) == 0 {
		return false
	}
	ev := e.q.pop()
	e.now = ev.at
	e.curRank = ev.rank()
	e.processed++
	if h := ev.handle(); h != 0 {
		e.fireMsg(h)
	} else {
		ev.fn()
	}
	e.curRank = -1
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	if e.par != nil && e.shard < 0 {
		e.par.run()
		return
	}
	for e.Step() {
	}
}

// RunUntil executes events until done reports true or the queue drains.
// It returns whether done was satisfied. On a classic engine the
// predicate is evaluated after every event; on a sharded driver façade
// it is evaluated at merge barriers (the only points where the
// predicate's view of the world is well-defined), so completion is
// quantized to the lookahead window.
func (e *Engine) RunUntil(done func() bool) bool {
	if e.par != nil && e.shard < 0 {
		return e.par.runUntil(done)
	}
	if done() {
		return true
	}
	for e.Step() {
		if done() {
			return true
		}
	}
	return done()
}

// RunUntilStride is RunUntil checking done only every stride events, for
// hot drain loops where a closure call per event is measurable (large
// worlds push tens of millions of events per run). A stride below 1 is
// treated as 1; on a sharded driver façade the stride is ignored, since
// the predicate already runs only at barriers.
func (e *Engine) RunUntilStride(done func() bool, stride int) bool {
	if e.par != nil && e.shard < 0 {
		return e.par.runUntil(done)
	}
	if stride < 1 {
		stride = 1
	}
	if done() {
		return true
	}
	for {
		for i := 0; i < stride; i++ {
			if !e.Step() {
				return done()
			}
		}
		if done() {
			return true
		}
	}
}

// RunFor executes events with timestamps up to and including deadline.
func (e *Engine) RunFor(d VTime) {
	deadline := e.now + d
	if e.par != nil && e.shard < 0 {
		e.par.runFor(deadline)
		return
	}
	for len(e.q) > 0 && e.q[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
