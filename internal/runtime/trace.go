package runtime

import (
	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// TraceKind classifies runtime trace events.
type TraceKind uint8

const (
	// TraceSend is a parcel leaving a locality (Info = action id).
	TraceSend TraceKind = iota
	// TraceExec is a parcel handler running (Info = action id).
	TraceExec
	// TraceHostForward is software-managed host forwarding (Info = new
	// owner).
	TraceHostForward
	// TraceHostNack is a software one-sided repair (Info = advised
	// owner).
	TraceHostNack
	// TraceNICNack is a fabric NACK processed by the host (Info =
	// advised owner).
	TraceNICNack
	// TraceMigrateStart is a block pinned for migration (Info =
	// destination).
	TraceMigrateStart
	// TraceMigrateDone is a migration completing at the old owner (Info
	// = new owner).
	TraceMigrateDone
	// TraceQueued is a message parked behind a moving block.
	TraceQueued
	// TraceLoopNack is a hop-budget NACK processed by the original
	// sender (Info = advised owner).
	TraceLoopNack
	// TraceRetransmit is a reliable-delivery resend (Info = sequence).
	TraceRetransmit
	// TraceDupSuppressed is a delivery rejected as already applied
	// (Info = sequence).
	TraceDupSuppressed
	// TraceNICForward is an in-network redirect: the NIC (DES fabric) or
	// the transport playing the NIC (goroutine engine) rewrote a stale
	// destination from its resident table mid-flight (Info = new owner).
	TraceNICForward
	// TraceMigrateAbort is a mid-flight migration abandoned at shutdown
	// (the block stays at its old owner).
	TraceMigrateAbort
	// TraceMemberSuspect is a liveness probe raised against a silent
	// rank (Rank = prober, Info = suspect).
	TraceMemberSuspect
	// TraceMemberAlive is a suspicion cleared by a pong (Info = the
	// exonerated rank).
	TraceMemberAlive
	// TraceMemberDead is a membership death declaration (Info = the dead
	// rank; planned retirements report here too once drained).
	TraceMemberDead
	// TraceMemberRetire is a planned departure beginning its drain
	// (Info = the draining rank).
	TraceMemberRetire
	// TraceMemberJoin is a dead rank completing readmission (Info = the
	// reborn rank).
	TraceMemberJoin
	// TraceRehome is a block recovered onto a survivor — a replica
	// promotion or a harvested directory route (Block/Info = the block).
	TraceRehome
)

func (k TraceKind) String() string {
	switch k {
	case TraceSend:
		return "send"
	case TraceExec:
		return "exec"
	case TraceHostForward:
		return "host-forward"
	case TraceHostNack:
		return "host-nack"
	case TraceNICNack:
		return "nic-nack"
	case TraceMigrateStart:
		return "migrate-start"
	case TraceMigrateDone:
		return "migrate-done"
	case TraceQueued:
		return "queued"
	case TraceLoopNack:
		return "loop-nack"
	case TraceRetransmit:
		return "retransmit"
	case TraceDupSuppressed:
		return "dup-suppressed"
	case TraceNICForward:
		return "nic-forward"
	case TraceMigrateAbort:
		return "migrate-abort"
	case TraceMemberSuspect:
		return "member-suspect"
	case TraceMemberAlive:
		return "member-alive"
	case TraceMemberDead:
		return "member-dead"
	case TraceMemberRetire:
		return "member-retire"
	case TraceMemberJoin:
		return "member-join"
	case TraceRehome:
		return "rehome"
	}
	return "unknown"
}

// Span phases let trace consumers pair events into intervals: a TraceSend
// opens an async span for its OpID, the matching TraceExec closes it, and
// everything between (forwards, NACKs, queueing, retransmits) annotates
// the journey as instants carrying the same OpID.
type Span uint8

const (
	// SpanInstant is a point event inside (or outside) any span.
	SpanInstant Span = iota
	// SpanBegin opens the async span identified by OpID.
	SpanBegin
	// SpanEnd closes the async span identified by OpID.
	SpanEnd
)

// spanOf derives the span phase from the event kind: a send opens the
// operation's span, the exec that finally runs it closes it, and every
// protocol step in between is an instant on the same id.
func spanOf(k TraceKind) Span {
	switch k {
	case TraceSend:
		return SpanBegin
	case TraceExec:
		return SpanEnd
	}
	return SpanInstant
}

// TraceEvent is one observable protocol step.
type TraceEvent struct {
	// Time is simulated time under the DES engine. Under the goroutine
	// engine it is monotonic wall-clock nanoseconds since World creation
	// (events are orderable within a run but the unit differs: simulated
	// ns versus real ns).
	Time  netsim.VTime
	Rank  int
	Kind  TraceKind
	Block gas.BlockID
	Info  uint64
	// OpID links every hop of one logical operation (parcel journey or
	// one-sided op); 0 when the step has no originating operation.
	OpID uint64
	// Span is the phase marker derived from Kind (begin/end/instant).
	Span Span
}

// SetTracer installs fn as the trace sink. Must be called before Start;
// fn must be safe for concurrent use under the goroutine engine. Tracing
// adds no simulated cost — it is an observer, not a participant.
func (w *World) SetTracer(fn func(TraceEvent)) {
	if w.started {
		panic("runtime: SetTracer after Start")
	}
	w.tracer = fn
	w.observed = fn != nil || w.lat != nil || w.cfg.Heat.Enabled
}

// Note kinds are protocol steps that only the latency histograms or the
// heat sampler observe. They follow the public kinds, and a tracer never
// sees them, except noteAbandon, which it receives as TraceLoopNack.
const (
	// noteOpStart opens an op's latency span: a one-sided issue, a
	// replica fan-out message, a replica fill request.
	noteOpStart = TraceRehome + 1 + iota
	// noteOpDone closes a one-sided op at its completion (Info = its
	// LatPath, LatPutDone or LatGetDone).
	noteOpDone
	// noteServe is a one-sided op applied at its owner (Info = issuing
	// rank << 1 | read).
	noteServe
	// noteMigInstall is a migrating block installed at its destination.
	noteMigInstall
	// noteMigCommit is a migration's directory flip at the home.
	noteMigCommit
	// noteReplInval, noteReplUpdate and noteReplFill are an
	// invalidation, an update snapshot and a refill applied at a holder.
	noteReplInval
	noteReplUpdate
	noteReplFill
	// noteCoalesceFlush is a coalescer buffer flushed (Info = the latency
	// clock at its first add).
	noteCoalesceFlush
	// noteAbandon is a hop-capped message abandoned at its sender
	// (Info = advised owner).
	noteAbandon
)

// note is the one observation point of a protocol step inside this rank.
// With no observer on it costs one branch.
func (l *Locality) note(kind TraceKind, block gas.BlockID, info, opID uint64) {
	if l.w.observed {
		l.w.observe(l.rank, l.exec, kind, block, info, opID)
	}
}

// noteMember is note for a membership step attributed to rank; those run
// in driver or barrier context, so the step reads the façade clock.
func (w *World) noteMember(rank int, kind TraceKind, info uint64) {
	if w.observed {
		w.observe(rank, w.net, kind, 0, info, 0)
	}
}

// clock is a latency clock: a rank's (its Executor) or the world's (the
// engine port).
type clock interface{ latNow() int64 }

// observe hands one step, stamped with clock c, to every observer that
// is on.
func (w *World) observe(rank int, c clock, kind TraceKind, block gas.BlockID, info, opID uint64) {
	var now int64
	if w.tracer != nil || w.lat != nil {
		now = c.latNow()
	}
	if w.tracer != nil {
		tk := kind
		if kind == noteAbandon {
			tk = TraceLoopNack
		}
		if tk <= TraceRehome {
			w.tracer(TraceEvent{
				Time: netsim.VTime(now), Rank: rank, Kind: tk, Block: block,
				Info: info, OpID: opID, Span: spanOf(tk),
			})
		}
	}
	if w.lat != nil {
		w.lat.observe(kind, block, info, opID, now)
	}
	if h := w.locs[rank].heat; h != nil {
		h.observe(kind, block, info, opID)
	}
}
