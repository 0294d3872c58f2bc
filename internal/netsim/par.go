package netsim

import (
	"fmt"
	"sync"
)

// ParEngine is the conservative-lookahead parallel configuration of the
// discrete-event engine. Ranks are partitioned into the topology's
// domains (Topology.Domains), and whole domains into contiguous shards,
// each owning one zero-alloc eventQueue (as the classic engine does) and
// its own clock. Execution proceeds in windows derived from the cheapest
// path between domains, L = link latency × the domains' hop bound: given
// the earliest pending event time m, every shard drains its events with
// timestamps in [m, m+L) with no synchronization, because any event one
// rank schedules on another domain's cannot land before now+L ≥ m+L —
// the lookahead guarantee the LogGP wire latency provides for free. A
// send within a domain may land inside the window: its destination runs
// on the sender's shard. Cross-shard events travel through per-(src,dst)
// inboxes written only by the source shard's worker and merged at the
// window barrier; work that must see or mutate global state (membership
// transitions, epoch bumps, kills) runs as barrier tasks between windows
// on the single driver goroutine. Domains and L depend on the topology
// and the rank count alone, so every shard count runs the same windows.
//
// Determinism does not come from the barrier alone: equal-time events
// must also pop in an order no worker race can perturb. Every scheduled
// event carries the invariant key (at, srcTag<<48|perRankSeq), where
// perRankSeq is a per-rank counter advanced only by that rank's own
// event stream. Because each rank's stream executes in a fixed order
// regardless of how ranks are grouped into shards, the keys — and
// therefore the total event order and final state — are bit-for-bit
// identical for every shard count, including shards=1. Driver/barrier
// work uses srcTag 1, sorting deterministically before rank traffic.
type ParEngine struct {
	nshards   int
	lookahead VTime
	shardTab  []int32 // rank → its contiguous shard
	domTab    []int32 // rank → its domain

	driver *Engine   // the façade the harness holds; its heap is the barrier-task queue
	shards []*Engine // one heap + clock per shard

	// perRankSeq is the invariant tie counter; slot r is advanced only by
	// rank r's executing events (one shard) or by the single-threaded
	// driver phase, so it is written race-free without atomics.
	perRankSeq []uint64
	driverSeq  uint64

	// inbox[src*nshards+dst] carries cross-shard events scheduled during
	// a window: written only by shard src's worker, merged by the driver
	// at the barrier. Entries keep their work inline: a typed step's slab
	// slot belongs to the destination shard, whose worker may be popping
	// it right now, so the slot is only taken at the merge.
	inbox [][]staged
	// taskStage[s] carries barrier tasks deferred from shard s's worker.
	taskStage [][]event

	// windowEnd is the current window's exclusive bound, published before
	// workers start; running marks the parallel phase (scheduling from an
	// unranked context then is a bug and panics rather than racing).
	windowEnd VTime
	running   bool

	workers  []*parWorker
	launched []int
	once     sync.Once
}

// staged is a cross-shard event waiting in an inbox for the barrier.
type staged struct {
	at   VTime
	tie  uint64
	rank int32
	fn   func()
	s    step
}

type parWorker struct {
	eng   *Engine
	start chan VTime
	done  chan struct{}
}

// NewParEngine builds a sharded engine over ranks localities on topology
// top (nil is the crossbar) whose links cost latency per hop: whole
// domains go to each of nshards contiguous shards (clamped to the domain
// count), and the lookahead is latency × the domains' hop bound. AtRank
// panics loudly if a send across domains ever lands inside a window.
// Returns the driver façade; shards=1 is the sequential degenerate case,
// run on the driver goroutine with no worker handoff.
func NewParEngine(ranks, nshards int, top Topology, latency VTime) *Engine {
	if ranks < 1 {
		panic(fmt.Sprintf("netsim: par engine with %d ranks", ranks))
	}
	if nshards < 1 {
		panic(fmt.Sprintf("netsim: par engine with %d shards", nshards))
	}
	if top == nil {
		top = Crossbar{}
	}
	size, hops := top.Domains(ranks)
	ndom := (ranks + size - 1) / size
	nshards = min(nshards, ndom)
	lookahead := latency * VTime(hops)
	if lookahead < 1 {
		panic(fmt.Sprintf("netsim: par engine lookahead %v < 1ns", lookahead))
	}
	p := &ParEngine{
		nshards:    nshards,
		lookahead:  lookahead,
		shardTab:   make([]int32, ranks),
		domTab:     make([]int32, ranks),
		perRankSeq: make([]uint64, ranks),
		inbox:      make([][]staged, nshards*nshards),
		taskStage:  make([][]event, nshards),
	}
	for r := range p.shardTab {
		d := r / size
		p.domTab[r], p.shardTab[r] = int32(d), int32(d*nshards/ndom)
	}
	p.driver = &Engine{par: p, shard: -1, curRank: -1}
	p.shards = make([]*Engine, nshards)
	for s := range p.shards {
		p.shards[s] = &Engine{par: p, shard: int32(s), curRank: -1}
	}
	return p.driver
}

// shardOf maps a rank to its contiguous shard.
func (p *ParEngine) shardOf(rank int) int { return int(p.shardTab[rank]) }

// nextTie stamps the invariant ordering key for an event scheduled from
// engine e's current context.
func (p *ParEngine) nextTie(e *Engine) uint64 {
	r := e.curRank
	if r < 0 {
		if p.running {
			panic("netsim: unranked scheduling from a sharded worker context (use AtRank)")
		}
		p.driverSeq++
		return 1<<48 | p.driverSeq
	}
	p.perRankSeq[r]++
	return uint64(r+2)<<48 | p.perRankSeq[r]
}

// barrierPush queues fn as a barrier task at absolute time t (driver
// phase only — worker-phase deferral goes through atBarrier's staging).
func (p *ParEngine) barrierPush(e *Engine, t VTime, fn func()) {
	p.driver.q.push(event{at: t, tie: p.nextTie(e), who: evWho(-1, 0), fn: fn})
}

// atBarrier defers fn to the next barrier from engine e's context.
func (p *ParEngine) atBarrier(e *Engine, fn func()) {
	if !p.running || e.shard < 0 {
		p.barrierPush(e, max(e.now, p.driver.now), fn)
		return
	}
	ev := event{at: e.now, tie: p.nextTie(e), who: evWho(-1, 0), fn: fn}
	p.taskStage[e.shard] = append(p.taskStage[e.shard], ev)
}

// atRank schedules fn (or typed step s) at (rank, t) from engine e's
// context.
func (p *ParEngine) atRank(e *Engine, rank int, t VTime, fn func(), s step) {
	dst := p.shardOf(rank)
	tie := p.nextTie(e)
	if !p.running {
		// Driver phase: all heaps are quiescent, push directly.
		tq := p.shards[dst]
		if t < tq.now {
			panic(fmt.Sprintf("netsim: scheduling at %v before shard clock %v", t, tq.now))
		}
		tq.push(t, tie, int32(rank), fn, s)
		return
	}
	if p.domTab[rank] == p.domTab[e.curRank] {
		// Scheduling within the domain, self included, may land inside
		// the current window: the domain's ranks all run on this shard.
		if t < e.now {
			panic(fmt.Sprintf("netsim: scheduling at %v before now %v", t, e.now))
		}
		e.push(t, tie, int32(rank), fn, s)
		return
	}
	// Across domains during a window: the conservative-lookahead contract
	// says it cannot land inside the current window. A violation means
	// the lookahead was derived wrong (some path is cheaper than L) and
	// determinism would silently break — fail loudly instead.
	if t < p.windowEnd {
		panic(fmt.Sprintf(
			"netsim: lookahead violation: rank %d scheduled on rank %d at %v inside window ending %v",
			e.curRank, rank, t, p.windowEnd))
	}
	if dst == int(e.shard) {
		e.push(t, tie, int32(rank), fn, s)
		return
	}
	box := &p.inbox[int(e.shard)*p.nshards+dst]
	*box = append(*box, staged{at: t, tie: tie, rank: int32(rank), fn: fn, s: s})
}

// mergeStaged moves worker-deferred barrier tasks and cross-shard inbox
// events into their destination heaps, and each destination shard gives
// the shards that sent it messages what it holds above half its spares'
// cap, so a one-way flow between shards does not drain one list into the
// heap. Driver phase only.
func (p *ParEngine) mergeStaged() {
	for s := range p.taskStage {
		for _, ev := range p.taskStage[s] {
			p.driver.q.push(ev)
		}
		p.taskStage[s] = p.taskStage[s][:0]
	}
	for i := range p.inbox {
		if len(p.inbox[i]) == 0 {
			continue
		}
		dst := p.shards[i%p.nshards]
		dst.Free.Give(&p.shards[i/p.nshards].Free, RecycleCap/2, RecycleCap/2)
		for j := range p.inbox[i] {
			st := &p.inbox[i][j]
			dst.push(st.at, st.tie, st.rank, st.fn, st.s)
			*st = staged{} // the backing array is reused; drop the message
		}
		p.inbox[i] = p.inbox[i][:0]
	}
}

// minEventTime returns the earliest pending shard event time (never when
// every shard is empty).
func (p *ParEngine) minEventTime() VTime {
	m := never
	for _, s := range p.shards {
		m = min(m, s.q.peekAt())
	}
	return m
}

// advance runs barrier tasks due before the next event horizon, then
// executes one window across all shards and merges. Returns false when
// nothing remains.
func (p *ParEngine) advance() bool {
	p.mergeStaged()
	for {
		em, task := p.minEventTime(), p.driver.q.peekAt()
		if em == never && task == never {
			return false
		}
		if task <= em {
			ev := p.driver.q.pop()
			p.driver.now = max(p.driver.now, ev.at)
			p.driver.processed++
			ev.fn()
			p.mergeStaged()
			continue
		}
		// No barrier work due at or before the horizon: open a window, but
		// never straddle a pending barrier task: it must observe all events
		// before its time and none after.
		we := min(em+p.lookahead, task)
		p.runWindow(we)
		p.mergeStaged()
		for _, s := range p.shards {
			s.now = max(s.now, we)
		}
		p.driver.now = max(p.driver.now, we)
		return true
	}
}

// runWindow drains every shard's events in [·, we) — in parallel when
// more than one shard has work.
func (p *ParEngine) runWindow(we VTime) {
	p.windowEnd = we
	p.launched = p.launched[:0]
	for s, e := range p.shards {
		if e.due(we) {
			p.launched = append(p.launched, s)
		}
	}
	if len(p.launched) == 0 {
		return
	}
	p.running = true
	if len(p.launched) == 1 {
		drainShard(p.shards[p.launched[0]], we)
	} else {
		p.startWorkers()
		for _, s := range p.launched {
			p.workers[s].start <- we
		}
		for _, s := range p.launched {
			<-p.workers[s].done
		}
	}
	p.running = false
}

// startWorkers lazily spawns one persistent goroutine per shard.
func (p *ParEngine) startWorkers() {
	p.once.Do(func() {
		p.workers = make([]*parWorker, p.nshards)
		for s := range p.workers {
			w := &parWorker{
				eng:   p.shards[s],
				start: make(chan VTime),
				done:  make(chan struct{}),
			}
			p.workers[s] = w
			go w.loop()
		}
	})
}

func (w *parWorker) loop() {
	for we := range w.start {
		drainShard(w.eng, we)
		w.done <- struct{}{}
	}
}

// due reports whether e holds an event with a timestamp strictly below we.
func (e *Engine) due(we VTime) bool { return e.q.peekAt() < we }

// drainShard executes e's events with timestamps strictly below we.
func drainShard(e *Engine, we VTime) {
	for e.due(we) {
		e.fire()
	}
	e.curRank = -1
}

// run advances windows until every heap, inbox, and barrier queue drains.
func (p *ParEngine) run() {
	for p.advance() {
	}
}

// runUntil advances windows until done reports true at a barrier, or
// everything drains. Both the sharded sequential case (shards=1) and
// every parallel shard count quantize the check identically, which is
// what makes their completions — and everything scheduled after —
// bit-for-bit comparable.
func (p *ParEngine) runUntil(done func() bool) bool {
	if done() {
		return true
	}
	for p.advance() {
		if done() {
			return true
		}
	}
	return done()
}

// processedAll sums executed events across the driver and every shard.
func (p *ParEngine) processedAll() uint64 {
	n := p.driver.processed
	for _, s := range p.shards {
		n += s.processed
	}
	return n
}

// pendingAll sums scheduled-but-unexecuted events everywhere.
func (p *ParEngine) pendingAll() int {
	n := p.driver.q.n
	for _, s := range p.shards {
		n += s.q.n
	}
	for i := range p.inbox {
		n += len(p.inbox[i])
	}
	for s := range p.taskStage {
		n += len(p.taskStage[s])
	}
	return n
}

// pendingByRank attributes scheduled-but-unexecuted events in the shard
// queues and inboxes to their ranks (see Engine.PendingByRank; barrier
// tasks, queued or staged, belong to no rank). Only legal between windows
// (driver phase), where the workers are parked and every queue is stable.
func (p *ParEngine) pendingByRank(counts []int) {
	for _, s := range p.shards {
		s.q.each(func(ev event) { countRank(ev.rank(), counts) })
	}
	for i := range p.inbox {
		for j := range p.inbox[i] {
			countRank(p.inbox[i][j].rank, counts)
		}
	}
}
