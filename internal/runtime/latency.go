package runtime

import (
	"sync"

	"nmvgas/internal/gas"
	"nmvgas/internal/stats"
)

// Runtime latency histograms (Config.Metrics). They observe protocol
// steps through the one observation point (trace.go): observe maps a
// step's kind to the path it opens, closes or samples.
//
// Units follow the rank's latency clock (latNow): simulated nanoseconds
// under EngineDES, monotonic wall nanoseconds under EngineGo (see
// TraceEvent.Time). In-flight operation starts are keyed by OpID in a
// sharded map so the goroutine engine's concurrent send/complete paths
// do not serialize on one lock.

// LatPath names one latency histogram.
type LatPath uint8

const (
	LatParcelExec    LatPath = iota // parcel send → final exec
	LatPutDone                      // put issue → completion callback
	LatGetDone                      // get issue → data callback
	LatNackRepair                   // send → NACK processed back at the sender
	LatCoalesceFlush                // coalescer buffer first add → flush
	// Migration phases: transfer = pin→install, update = install→commit
	// (the directory/NIC table flip), drain = commit→done (unpin + queue
	// flush), total = pin→done.
	LatMigTransfer
	LatMigUpdate
	LatMigDrain
	LatMigTotal
	// Replica coherence: write → invalidation applied at a holder, write
	// → update snapshot installed at a holder, and stale mark → refill
	// installed (the window in which a holder's reads chase the master).
	LatReplInval
	LatReplUpdate
	LatReplFill
	// NumLatPaths is the number of latency paths.
	NumLatPaths
)

var latPathNames = [NumLatPaths]string{
	"parcel_exec", "put", "get", "nack_repair", "coalesce_flush",
	"mig_transfer", "mig_update", "mig_drain", "mig_total",
	"repl_inval", "repl_update", "repl_fill",
}

// String is the path's report name (stats-table rows, metric labels).
func (p LatPath) String() string { return latPathNames[p] }

const latShardCount = 16

type latShard struct {
	mu    sync.Mutex
	start map[uint64]int64
}

// migMarks holds the latency clock at each completed phase of one
// in-flight migration.
type migMarks struct {
	pin, install, commit int64
}

type latencyState struct {
	shards [latShardCount]latShard
	path   [NumLatPaths]stats.Histogram

	// The migration chain crosses ranks (owner → destination → home →
	// old owner), so its marks live world-level; a block migrates at most
	// once at a time (the pin guarantees it), so a plain map keyed by
	// block suffices.
	migMu sync.Mutex
	mig   map[gas.BlockID]*migMarks
}

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

// observe is the histograms' view of one protocol step at time now.
func (s *latencyState) observe(kind TraceKind, b gas.BlockID, info, opID uint64, now int64) {
	switch kind {
	case TraceSend, noteOpStart:
		sh := s.shard(opID)
		sh.mu.Lock()
		sh.start[opID] = now
		sh.mu.Unlock()
	case TraceExec:
		s.done(opID, now, LatParcelExec)
	case noteOpDone:
		s.done(opID, now, LatPath(info))
	case noteReplInval:
		s.done(opID, now, LatReplInval)
	case noteReplUpdate:
		s.done(opID, now, LatReplUpdate)
	case noteReplFill:
		s.done(opID, now, LatReplFill)
	case TraceNICNack, TraceHostNack, TraceLoopNack:
		// The wasted round trip of a NACKed op. Its start mark stays:
		// the op is still in flight, and its exec or completion closes
		// the span.
		sh := s.shard(opID)
		sh.mu.Lock()
		t0, ok := sh.start[opID]
		sh.mu.Unlock()
		if ok {
			s.path[LatNackRepair].Record(now - t0)
		}
	case noteCoalesceFlush:
		s.path[LatCoalesceFlush].Record(now - int64(info))
	case TraceMigrateStart, noteMigInstall, noteMigCommit, TraceMigrateDone:
		s.migMark(kind, b, now)
	}
}

// done closes op id's span into path p.
func (s *latencyState) done(id uint64, now int64, p LatPath) {
	sh := s.shard(id)
	sh.mu.Lock()
	t0, ok := sh.start[id]
	delete(sh.start, id)
	sh.mu.Unlock()
	if ok {
		s.path[p].Record(now - t0)
	}
}

// migMark records one phase of a migration's protocol chain.
func (s *latencyState) migMark(kind TraceKind, b gas.BlockID, now int64) {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	if kind == TraceMigrateStart {
		s.mig[b] = &migMarks{pin: now}
		return
	}
	m := s.mig[b]
	if m == nil {
		return
	}
	switch kind {
	case noteMigInstall:
		m.install = now
		s.path[LatMigTransfer].Record(now - m.pin)
	case noteMigCommit:
		m.commit = now
		s.path[LatMigUpdate].Record(now - m.install)
	case TraceMigrateDone:
		delete(s.mig, b)
		s.path[LatMigDrain].Record(now - m.commit)
		s.path[LatMigTotal].Record(now - m.pin)
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

// WorldLatencies is the latency report surfaced through WorldStats: one
// summary per LatPath. All values are nanoseconds on the engine's latency
// clock (simulated under EngineDES, wall under EngineGo); everything is
// zero unless Config.Metrics was set.
type WorldLatencies struct {
	Enabled bool
	Path    [NumLatPaths]LatencySummary
}

// Latencies returns the world's latency report (zero unless
// Config.Metrics).
func (w *World) Latencies() WorldLatencies {
	if w.lat == nil {
		return WorldLatencies{}
	}
	out := WorldLatencies{Enabled: true}
	for p := range out.Path {
		out.Path[p] = summarize(&w.lat.path[p])
	}
	return out
}

// QueueDepths returns every rank's pending backlog as a fresh slice (see
// network.queueDepthsInto, the on-demand tap the queue-depth watchdog
// reads every pulse); the metrics publisher and sampler poll it.
func (w *World) QueueDepths() []int {
	counts := make([]int, w.Ranks())
	w.net.queueDepthsInto(counts)
	return counts
}
