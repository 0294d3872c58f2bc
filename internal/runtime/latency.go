package runtime

import (
	"sync"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/stats"
)

// Runtime latency histograms (Config.Metrics). Every hook below is a
// method on the *Locality it runs in, guarded by a single `l.w.lat == nil`
// check, so the disabled path costs one predictable branch and zero
// allocations — the claim the LatencyOverhead benchmarks pin down.
//
// Units follow the rank's latency clock (latNow): simulated nanoseconds
// under EngineDES, monotonic wall nanoseconds under EngineGo (see
// TraceEvent.Time). In-flight operation starts are keyed by OpID in a
// sharded map so the goroutine engine's concurrent send/complete paths
// do not serialize on one lock.

const latShardCount = 16

type latShard struct {
	mu    sync.Mutex
	start map[uint64]int64
}

// migration phase marks, in protocol order.
const (
	migPin     = iota // block pinned at the old owner (migrate.req)
	migInstall        // block installed at the destination (migrate.data)
	migCommit         // directory flipped at the home (migrate.commit)
	migDone           // old owner unpinned and drained (migrate.done)
)

// migMarks holds the latency clock at each completed phase of one
// in-flight migration.
type migMarks struct {
	pin, install, commit int64
}

type latencyState struct {
	shards [latShardCount]latShard

	parcelExec    stats.Histogram // send → final exec
	putDone       stats.Histogram // put issue → remote-completion callback
	getDone       stats.Histogram // get issue → data callback
	nackRepair    stats.Histogram // send → NACK processed back at the sender
	coalesceFlush stats.Histogram // buffer first-add → flush

	// Migration phase durations, keyed off the protocol chain's marks:
	// transfer = pin→install, update = install→commit (the directory/NIC
	// table flip), drain = commit→done (unpin + queue flush), total =
	// pin→done.
	migTransfer stats.Histogram
	migUpdate   stats.Histogram
	migDrain    stats.Histogram
	migTotal    stats.Histogram

	// Replica coherence paths: write → invalidation applied at a holder,
	// write → update snapshot installed at a holder, and stale mark →
	// refill installed (the window in which a holder's reads chase the
	// master).
	replInval  stats.Histogram
	replUpdate stats.Histogram
	replFill   stats.Histogram

	migMu sync.Mutex
	mig   map[gas.BlockID]*migMarks
}

// replica coherence span kinds for latReplDone.
const (
	latReplInval = iota
	latReplUpdate
	latReplFill
)

func newLatencyState() *latencyState {
	s := &latencyState{mig: make(map[gas.BlockID]*migMarks)}
	for i := range s.shards {
		s.shards[i].start = make(map[uint64]int64)
	}
	return s
}

func (s *latencyState) shard(id uint64) *latShard {
	// The sequence lives in the low bits; the rank in the high bits.
	// Mixing both spreads concurrent ranks across shards.
	return &s.shards[(id^id>>48)%latShardCount]
}

// The runtime's clocks, one definition per unit. Code running inside a
// rank reads its rank's engine face, l.eng: under Shards >= 1 that is the
// shard engine, whose Now is the running event's time, while w.eng is the
// driver façade, whose Now is the last barrier's. Driver and barrier code
// (the pulse tick, installReplicaSet, membership steps) reads the façade.
// EngineGo has no simulated clock: both read wall time since World
// creation.

// clockOn reads the latency clock — latency samples, trace stamps, lease
// stamps — on engine face e (nil under EngineGo), in nanoseconds.
func (w *World) clockOn(e *netsim.Engine) int64 {
	if e != nil {
		return int64(e.Now())
	}
	return int64(time.Since(w.epoch))
}

// latNow is the latency clock from driver or barrier context.
func (w *World) latNow() int64 { return w.clockOn(w.eng) }

// latNow is the latency clock from inside this rank.
func (l *Locality) latNow() int64 { return l.w.clockOn(l.eng) }

// simNow is the clock that intervals given in simulated time run on
// (retransmission deadlines, coalescer gaps): simulated time under
// EngineDES, wall time scaled back through goTimeScale under EngineGo,
// so real scheduling jitter does not masquerade as loss.
func (l *Locality) simNow() netsim.VTime {
	if l.eng != nil {
		return l.eng.Now()
	}
	return netsim.VTime(l.w.clockOn(nil) / goTimeScale)
}

// latStart marks an operation (parcel or one-sided op) as in flight.
func (l *Locality) latStart(id uint64) {
	if l.w.lat == nil {
		return
	}
	now := l.latNow()
	sh := l.w.lat.shard(id)
	sh.mu.Lock()
	sh.start[id] = now
	sh.mu.Unlock()
}

// latTake removes and returns an operation's start mark.
func (s *latencyState) take(id uint64, now int64) (int64, bool) {
	sh := s.shard(id)
	sh.mu.Lock()
	t0, ok := sh.start[id]
	delete(sh.start, id)
	sh.mu.Unlock()
	return now - t0, ok
}

// latParcelExec closes a parcel's span: final execution at the owner.
func (l *Locality) latParcelExec(id uint64) {
	if l.w.lat == nil || id == 0 {
		return
	}
	if d, ok := l.w.lat.take(id, l.latNow()); ok {
		l.w.lat.parcelExec.Record(d)
	}
}

// latOpDone closes a one-sided operation's span at its completion
// callback.
func (l *Locality) latOpDone(id uint64, put bool) {
	if l.w.lat == nil {
		return
	}
	if d, ok := l.w.lat.take(id, l.latNow()); ok {
		if put {
			l.w.lat.putDone.Record(d)
		} else {
			l.w.lat.getDone.Record(d)
		}
	}
}

// latNackRepair samples the wasted round trip of a NACKed operation:
// time from the original send to the NACK being processed back at the
// sender. The start mark stays in place — the operation is still in
// flight and its eventual exec/completion closes the span.
func (l *Locality) latNackRepair(id uint64) {
	if l.w.lat == nil || id == 0 {
		return
	}
	now := l.latNow()
	sh := l.w.lat.shard(id)
	sh.mu.Lock()
	t0, ok := sh.start[id]
	sh.mu.Unlock()
	if ok {
		l.w.lat.nackRepair.Record(now - t0)
	}
}

// latReplDone closes a replica coherence span (opened with latStart at
// the fan-out or fill send) into the histogram selected by which.
func (l *Locality) latReplDone(id uint64, which int) {
	if l.w.lat == nil || id == 0 {
		return
	}
	if d, ok := l.w.lat.take(id, l.latNow()); ok {
		switch which {
		case latReplInval:
			l.w.lat.replInval.Record(d)
		case latReplUpdate:
			l.w.lat.replUpdate.Record(d)
		case latReplFill:
			l.w.lat.replFill.Record(d)
		}
	}
}

// latMigMark records one phase of a migration's protocol chain. The
// chain crosses ranks (owner → destination → home → old owner), so the
// marks live world-level; a block migrates at most once at a time (the
// pin guarantees it), so a plain map keyed by block suffices.
func (l *Locality) latMigMark(b gas.BlockID, phase int) {
	if l.w.lat == nil {
		return
	}
	now := l.latNow()
	s := l.w.lat
	s.migMu.Lock()
	defer s.migMu.Unlock()
	switch phase {
	case migPin:
		s.mig[b] = &migMarks{pin: now}
	case migInstall:
		if m := s.mig[b]; m != nil {
			m.install = now
			s.migTransfer.Record(now - m.pin)
		}
	case migCommit:
		if m := s.mig[b]; m != nil {
			m.commit = now
			s.migUpdate.Record(now - m.install)
		}
	case migDone:
		if m := s.mig[b]; m != nil {
			delete(s.mig, b)
			s.migDrain.Record(now - m.commit)
			s.migTotal.Record(now - m.pin)
		}
	}
}

// ---------------------------------------------------------------------
// Reporting

// LatencySummary condenses one histogram for reports.
type LatencySummary struct {
	Count  int64
	MeanNs float64
	P50Ns  int64
	P95Ns  int64
	P99Ns  int64
	MaxNs  int64
}

func summarize(h *stats.Histogram) LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanNs: h.Mean(),
		P50Ns:  h.P50(),
		P95Ns:  h.P95(),
		P99Ns:  h.P99(),
		MaxNs:  h.Max(),
	}
}

// WorldLatencies is the latency report surfaced through WorldStats.
// All values are nanoseconds on the engine's latency clock (simulated
// under EngineDES, wall under EngineGo); everything is zero unless
// Config.Metrics was set.
type WorldLatencies struct {
	Enabled bool

	ParcelExec    LatencySummary // parcel send → final exec
	PutDone       LatencySummary // put issue → completion callback
	GetDone       LatencySummary // get issue → data callback
	NackRepair    LatencySummary // send → NACK back at the sender
	CoalesceFlush LatencySummary // coalescer buffer wait

	MigTransfer LatencySummary // pin → install at destination
	MigUpdate   LatencySummary // install → directory/table flip
	MigDrain    LatencySummary // flip → old owner drained
	MigTotal    LatencySummary // pin → done

	ReplInval  LatencySummary // write → invalidation applied at holder
	ReplUpdate LatencySummary // write → update snapshot installed
	ReplFill   LatencySummary // stale mark → refill installed
}

// Latencies returns the world's latency report (zero unless
// Config.Metrics).
func (w *World) Latencies() WorldLatencies {
	if w.lat == nil {
		return WorldLatencies{}
	}
	s := w.lat
	return WorldLatencies{
		Enabled:       true,
		ParcelExec:    summarize(&s.parcelExec),
		PutDone:       summarize(&s.putDone),
		GetDone:       summarize(&s.getDone),
		NackRepair:    summarize(&s.nackRepair),
		CoalesceFlush: summarize(&s.coalesceFlush),
		MigTransfer:   summarize(&s.migTransfer),
		MigUpdate:     summarize(&s.migUpdate),
		MigDrain:      summarize(&s.migDrain),
		MigTotal:      summarize(&s.migTotal),
		ReplInval:     summarize(&s.replInval),
		ReplUpdate:    summarize(&s.replUpdate),
		ReplFill:      summarize(&s.replFill),
	}
}

// queueDepthsInto fills counts (one slot per rank) with each rank's
// pending backlog: mailbox depth on the goroutine engine, rank-
// attributed pending events on DES. The queue-depth watchdog calls it
// every pulse; it is an on-demand tap with no hot-path bookkeeping.
func (w *World) queueDepthsInto(counts []int) {
	if w.eng != nil {
		w.eng.PendingByRank(counts)
		return
	}
	for r, l := range w.locs {
		counts[r] = l.exec.(*goExec).depth()
	}
}

// QueueDepths returns every rank's pending backlog (see queueDepthsInto)
// as a fresh slice; the metrics publisher and sampler poll it.
func (w *World) QueueDepths() []int {
	counts := make([]int, w.Ranks())
	w.queueDepthsInto(counts)
	return counts
}

// NICTableLen returns the NIC-resident translation table size at rank r
// (0 for address spaces without NIC translation).
func (w *World) NICTableLen(r int) int {
	n := 0
	w.net.State(r, func(st *netsim.TransState) { n += st.Table.Len() })
	return n
}
