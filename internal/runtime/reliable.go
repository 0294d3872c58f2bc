package runtime

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"nmvgas/internal/netsim"
)

// End-to-end reliable delivery. The fabric may drop, duplicate, delay, or
// reorder messages (see netsim.FaultPlan); this layer restores
// exactly-once application semantics on top:
//
//   - every tracked message carries a per-(sender, channel) sequence
//     number assigned at injection;
//   - the receiver records delivered sequence numbers and suppresses
//     duplicates at the point of application (not at wire arrival, so a
//     message queued behind a migration is not falsely marked done);
//   - each delivery is acknowledged with a cumulative horizon, and the
//     sender retransmits unacked messages on a per-channel timer with
//     exponential backoff, abandoning after MaxAttempts;
//   - migration-protocol parcels ride the same machinery, so a lost
//     commit or done message is retransmitted instead of stranding the
//     block.
//
// The layer is only active when the world has faults configured (or
// Reliability.Force is set): a fault-free world pays zero overhead and
// performs zero retransmissions.
//
// Sequence numbers are dense per stream and streams dense per rank pair,
// so nothing here is hashed: a channel's unacked messages sit in a ring
// indexed by sequence number (relTxChan), a stream's applied set is a
// horizon plus a 64-bit window (relRxState), both found by slice index
// and made with the stream's first message.
//
// Receiver state is held at world scope rather than per locality. A
// production system would migrate per-block delivery records along with
// the block; modeling the dedup store as logically shared gives the same
// exactly-once guarantee without simulating that transfer, and keeps a
// late duplicate that trails a completed migration from re-executing at
// the new owner (see DESIGN.md §8). Counters are kept where the lock a
// path already holds covers them — a sender's in its relLoc, a receiver's
// beside the store — and DeliveryStats sums.

// relAckWire approximates an ack descriptor on the wire.
const relAckWire = 24

// relBounceCap bounds how many hop-budget NACKs a single message may
// suffer before its sender abandons it (the routing state is broken;
// retrying forever would livelock).
const relBounceCap = 3

// relRTO is the initial per-channel retransmission timeout, far above any
// simulated round trip; exponential backoff doubles it up to relMaxRTO.
const (
	relRTO    = 200 * netsim.Microsecond
	relMaxRTO = 16 * relRTO
)

// ReliabilityConfig tunes the reliable-delivery layer.
type ReliabilityConfig struct {
	// Force enables the layer even with a zero FaultPlan (tests use this
	// to measure the no-fault overhead).
	Force bool
	// MaxAttempts bounds total transmissions of one message before the
	// sender abandons it (0 = 12).
	MaxAttempts int
}

func (r ReliabilityConfig) withDefaults() ReliabilityConfig {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 12
	}
	return r
}

// DeliveryStats reports what the reliability layer did: the degradation
// a lossy fabric caused, and that it stayed invisible to the
// application.
type DeliveryStats struct {
	// Tracked counts messages that entered reliable delivery.
	Tracked uint64
	// Retransmits counts timer-driven resends (MigRetransmits of them
	// were migration-protocol parcels — each one a migration the layer
	// recovered from a lost protocol step).
	Retransmits    uint64
	MigRetransmits uint64
	// Abandoned counts messages given up on after MaxAttempts or
	// relBounceCap hop-budget bounces.
	Abandoned uint64
	// AcksSent / AcksReceived count ack traffic (acks themselves are
	// unreliable; a lost ack is repaired by the next retransmission).
	AcksSent     uint64
	AcksReceived uint64
	// DupsSuppressed counts deliveries rejected as already applied;
	// FlushSuppressed counts the subset caught while flushing a
	// migration queue.
	DupsSuppressed  uint64
	FlushSuppressed uint64
	// StaleDrops counts messages dropped (and acked) because their block
	// no longer exists anywhere — deliveries that would panic on a
	// lossless fabric.
	StaleDrops uint64
	// LateCompletions counts completions for already-completed ops.
	LateCompletions uint64
	// HopCapNacks counts hop-budget NACKs processed by senders; MaxHops
	// is the largest forward-hop count any applied message survived.
	HopCapNacks uint64
	MaxHops     int
	// Faults snapshots the injector's counters (what the fabric did).
	Faults netsim.FaultStats
}

// relRxState is the receive-side dedup record for one stream: every
// sequence number <= cum has been applied, and bit d of win records
// cum+1+d, so an arrival inside the 64-sequence window is a bit test and
// folding a filled gap into the horizon is a shift. far holds arrivals at
// least 64 ahead of the horizon — made on the first one, so any
// reordering distance stays correct — and drains into win as the horizon
// reaches them. The zero value is a stream nothing has arrived on.
type relRxState struct {
	cum, win uint64
	far      map[uint64]struct{}
}

func (rx *relRxState) seen(seq uint64) bool {
	if seq <= rx.cum {
		return true
	}
	if d := seq - rx.cum - 1; d < 64 {
		return rx.win>>d&1 != 0
	}
	_, ok := rx.far[seq]
	return ok
}

// record marks seq, not yet seen, applied.
func (rx *relRxState) record(seq uint64) {
	d := seq - rx.cum - 1
	if d >= 64 {
		if rx.far == nil {
			rx.far = make(map[uint64]struct{})
		}
		rx.far[seq] = struct{}{}
		return
	}
	rx.win |= 1 << d
	// Fold the run that now starts at the horizon. A step moves cum by at
	// most 64 and far entries sit at least 64 ahead, so none is stepped
	// over: each enters win as soon as it is in reach, and may extend the
	// run.
	for n := bits.TrailingZeros64(^rx.win); n > 0; n = bits.TrailingZeros64(^rx.win) {
		rx.cum += uint64(n)
		rx.win >>= n
		for s := range rx.far {
			if d := s - rx.cum - 1; d < 64 {
				rx.win |= 1 << d
				delete(rx.far, s)
			}
		}
	}
}

// relWorld is the world-scoped half of the layer: the receive-side dedup
// store, rx[src][ch], and the receiver-side counters (stats, under mu;
// the two counted where no lock is held are atomics). A source's row is
// made when its first tracked message is applied and dropped at its
// rebirth.
type relWorld struct {
	mu    sync.Mutex
	rx    [][]relRxState
	stats DeliveryStats

	staleDrops, lateCompletions atomic.Uint64
}

// stream returns the receive record of m's stream. Callers hold rw.mu.
func (rw *relWorld) stream(m *netsim.Message) *relRxState {
	row := rw.rx[m.Src]
	if row == nil {
		row = make([]relRxState, len(rw.rx))
		rw.rx[m.Src] = row
	}
	return &row[m.RelChan]
}

// relSlot is one unacked message held for retransmission; m == nil marks
// a free slot. m is a pristine copy taken before the transport mutated
// routing fields — a pooled envelope, released when the slot clears;
// deadline is the clock reading after which the message is considered
// lost (a channel timer firing earlier leaves it alone — without the
// deadline, a message injected just before the timer fires would be
// spuriously retransmitted).
type relSlot struct {
	m        *netsim.Message
	attempts int
	deadline netsim.VTime
}

// relTxChan is the send side of one channel. Its n unacked messages all
// lie in the window [base, nextSeq], each in ring slot seq&mask; the ring
// is a power of two no shorter than the window, and while n > 0 base is
// itself unacked, so walking up from base meets every live message in
// sequence order and an ack horizon is cleared in O(acked).
type relTxChan struct {
	nextSeq, base uint64
	n             int
	ring          []relSlot
	rto           netsim.VTime
	armed         bool
}

func (tc *relTxChan) slot(seq uint64) *relSlot {
	return &tc.ring[seq&uint64(len(tc.ring)-1)]
}

// track gives m the channel's next sequence number and holds a pristine
// copy of it in that number's slot until deadline, growing the ring when
// the window no longer fits it.
func (tc *relTxChan) track(m *netsim.Message, deadline netsim.VTime) {
	tc.nextSeq++
	seq := tc.nextSeq
	if tc.n == 0 {
		// Only an empty window may jump: base must stay at or below every
		// live sequence number.
		tc.base = seq
	}
	if span := seq - tc.base + 1; span > uint64(len(tc.ring)) {
		old := tc.ring
		size := max(len(old), 8) // most streams never have more outstanding
		for uint64(size) < span {
			size *= 2
		}
		tc.ring = make([]relSlot, size)
		for _, s := range old {
			if s.m != nil {
				*tc.slot(s.m.RelSeq) = s // a new mask puts a live slot elsewhere
			}
		}
	}
	tc.n++
	m.RelSeq = seq
	cp := netsim.NewMessage()
	*cp = *m
	*tc.slot(seq) = relSlot{m: cp, attempts: 1, deadline: deadline}
}

// clear frees seq's slot and reports whether seq was still pending (an
// ack, a NACK or a timer can each name a sequence number another one
// already cleared, or one this incarnation never sent).
func (tc *relTxChan) clear(seq uint64) bool {
	if tc.n == 0 || seq < tc.base || seq > tc.nextSeq || tc.slot(seq).m == nil {
		return false
	}
	s := tc.slot(seq)
	s.m.Release()
	*s = relSlot{}
	tc.n--
	for tc.n > 0 && tc.slot(tc.base).m == nil {
		tc.base++
	}
	return true
}

// ack clears seq and everything at or below the cumulative horizon cum.
func (tc *relTxChan) ack(seq, cum uint64) {
	tc.clear(seq)
	for tc.n > 0 && tc.base <= cum {
		tc.clear(tc.base)
	}
}

// relLoc is the per-locality send state: tx[ch] is channel ch's window
// (the slice is made with the locality's first tracked message, an entry
// with the channel's), stats the sender-side counters. All under mu.
type relLoc struct {
	mu    sync.Mutex
	tx    []*relTxChan
	stats DeliveryStats
}

// chanOf returns ch's send state, nil when this incarnation has sent
// nothing on ch (a timer or an ack of the previous one can still ask).
func (rl *relLoc) chanOf(ch int32) *relTxChan {
	if int(ch) >= len(rl.tx) {
		return nil
	}
	return rl.tx[ch]
}

// relChanOf picks the channel key for m: the resolved destination rank,
// or the target's home when the NIC resolves the destination (ByGVA) —
// the stream key only has to be stable per message, not per path.
func relChanOf(m *netsim.Message) int32 {
	if m.Dst == netsim.ByGVA {
		return int32(m.Target.Home())
	}
	return int32(m.Dst)
}

// relTrack enrolls m in reliable delivery at injection time. Control
// messages, acks, and already-tracked messages (resends) pass through.
func (l *Locality) relTrack(m *netsim.Message) {
	rl := l.rel
	if rl == nil || m.RelSeq != 0 || m.Ctl != netsim.CtlNone || m.Kind == kRelAck ||
		m.Kind == kMemberPing || m.Kind == kMemberPong {
		return
	}
	ch := relChanOf(m)
	rl.mu.Lock()
	if rl.tx == nil {
		rl.tx = make([]*relTxChan, l.w.cfg.Ranks)
	}
	tc := rl.tx[ch]
	if tc == nil {
		tc = &relTxChan{rto: relRTO}
		rl.tx[ch] = tc
	}
	m.RelChan = ch
	tc.track(m, l.simNow()+tc.rto)
	rl.stats.Tracked++
	arm := !tc.armed
	tc.armed = true
	rto := tc.rto
	rl.mu.Unlock()
	if arm {
		l.relArm(ch, rto)
	}
}

// relArm schedules the retransmission timer for channel ch.
func (l *Locality) relArm(ch int32, d netsim.VTime) {
	if l.eng != nil {
		// The retransmission timer is rank-local work: it reads and
		// mutates only this locality's send state, so it runs on the
		// rank's own timeline (its shard under the parallel engine).
		l.eng.AfterRank(l.rank, d, func() { l.relTimer(ch) })
		return
	}
	time.AfterFunc(l.w.goWall(d), func() {
		l.exec.Exec(0, func() { l.relTimer(ch) })
	})
}

// relTimer fires for channel ch: retransmit everything unacked and past
// its deadline (oldest first — the window is walked in sequence order,
// which is what makes the resends deterministic), back off, re-arm while
// work remains.
func (l *Locality) relTimer(ch int32) {
	rl := l.rel
	if rl == nil {
		return
	}
	rl.mu.Lock()
	tc := rl.chanOf(ch)
	if tc == nil {
		rl.mu.Unlock()
		return
	}
	if tc.n == 0 {
		tc.armed, tc.rto = false, relRTO
		rl.mu.Unlock()
		return
	}
	now := l.simNow()
	var resend []*netsim.Message
	var nextDue netsim.VTime
	for s, end := tc.base, tc.nextSeq; s <= end; s++ {
		p := tc.slot(s)
		if p.m == nil {
			continue
		}
		if p.deadline > now {
			// Still within its grace period; the channel timer just fired
			// early for this message.
			if nextDue == 0 || p.deadline < nextDue {
				nextDue = p.deadline
			}
			continue
		}
		if p.attempts >= l.w.cfg.Reliability.MaxAttempts {
			tc.clear(s)
			rl.stats.Abandoned++
			continue
		}
		if len(resend) == 0 {
			// Back off only on evidence of loss, once per firing, before the
			// first resent message takes its new deadline.
			tc.rto = min(2*tc.rto, relMaxRTO)
		}
		p.attempts++
		p.deadline = now + tc.rto
		// The clone travels and is recycled by whoever consumes it; the
		// pristine copy p.m stays here for the next retransmission.
		cp := netsim.NewMessage()
		*cp = *p.m
		cp.Hops = 0
		resend = append(resend, cp)
		if cp.MigCtl {
			rl.stats.MigRetransmits++
		}
	}
	rl.stats.Retransmits += uint64(len(resend))
	// A channel pinned at its backoff ceiling with work still unacked
	// means something is silently eating traffic — the whole-node
	// failure signature. Raise membership suspicion (outside the lock,
	// below); the sweep is armed-gated and single-flight, so healthy
	// worlds and already-probing ones pay nothing.
	ceiling := len(resend) > 0 && tc.rto >= relMaxRTO
	next := tc.rto
	if len(resend) == 0 && nextDue > now {
		next = nextDue - now
	}
	again := tc.n > 0
	tc.armed = again
	if !again {
		tc.rto = relRTO
	}
	rl.mu.Unlock()

	if ceiling {
		// The sweep inspects and arms world-level membership state, which
		// a shard worker must not touch mid-window.
		l.w.deferGlobal(l, func() { l.w.mem.suspectSweep(l) })
	}
	for _, m := range resend {
		l.trace(TraceRetransmit, m.Block, m.RelSeq)
		// The pristine copy still carries its original destination
		// (possibly ByGVA); both transports re-resolve it, so a
		// retransmission chases the block's current owner.
		l.exec.Charge(l.w.cfg.Model.OSend)
		l.w.net.Send(l.rank, m)
	}
	if again {
		l.relArm(ch, next)
	}
}

// relAccept is the exactly-once gate at a message's point of
// application. It reports whether m should be applied (always true when
// the layer is off or m is untracked) and acknowledges the delivery
// either way, so a duplicate re-acks in case the first ack was lost.
func (l *Locality) relAccept(m *netsim.Message) bool {
	return l.rel == nil || m.RelSeq == 0 || !l.relGate(m, true)
}

// relDupPeek reports whether m is already applied, without recording
// anything — runParcel asks it first, so a late duplicate user parcel is
// dropped before it can park behind a migration or be re-routed by a
// stale delivery. It re-acks known duplicates.
func (l *Locality) relDupPeek(m *netsim.Message) bool {
	return l.rel != nil && m.RelSeq != 0 && l.relGate(m, false)
}

// relGate reports whether tracked m is a duplicate of something already
// applied; a first arrival is recorded when apply is set. Whatever is now
// on record — the duplicate, the newly applied — is acknowledged.
func (l *Locality) relGate(m *netsim.Message, apply bool) (dup bool) {
	rw := l.w.relw
	rw.mu.Lock()
	rx := rw.stream(m)
	dup = rx.seen(m.RelSeq)
	switch {
	case dup:
		rw.stats.DupsSuppressed++
	case apply:
		rx.record(m.RelSeq)
		rw.stats.MaxHops = max(rw.stats.MaxHops, m.Hops)
	default:
		rw.mu.Unlock()
		return false
	}
	cum := rx.cum
	rw.stats.AcksSent++
	rw.mu.Unlock()
	l.relSendAck(m, cum)
	if dup {
		l.trace(TraceDupSuppressed, m.Block, m.RelSeq)
	}
	return dup
}

// relFlushOK reports whether a message queued behind a migration should
// still be flushed to the new owner; a copy that was already applied here
// before the block moved must not travel (it would be suppressed at the
// destination anyway — this keeps it off the wire).
func (l *Locality) relFlushOK(m *netsim.Message) bool {
	if l.rel == nil || m.RelSeq == 0 {
		return true
	}
	rw := l.w.relw
	rw.mu.Lock()
	seen := rw.stream(m).seen(m.RelSeq)
	if seen {
		rw.stats.FlushSuppressed++
	}
	rw.mu.Unlock()
	return !seen
}

// relSendAck acknowledges m's stream up to cum. Self-deliveries
// short-circuit.
func (l *Locality) relSendAck(m *netsim.Message, cum uint64) {
	ack := netsim.NewMessage()
	*ack = netsim.Message{Kind: kRelAck, Src: l.rank, Dst: m.Src, Wire: relAckWire,
		RelChan: m.RelChan, RelSeq: m.RelSeq, RelCum: cum}
	if m.Src == l.rank {
		l.relOnAck(ack)
		ack.Release()
		return
	}
	l.w.net.Send(l.rank, ack)
}

// relOnAck clears acked messages at the sender: the named sequence plus
// everything at or below the cumulative horizon.
func (l *Locality) relOnAck(m *netsim.Message) {
	rl := l.rel
	if rl == nil {
		return
	}
	rl.mu.Lock()
	if tc := rl.chanOf(m.RelChan); tc != nil {
		tc.ack(m.RelSeq, m.RelCum)
		if tc.n == 0 {
			tc.rto = relRTO
		}
	}
	rl.stats.AcksReceived++
	rl.mu.Unlock()
}

// relAbandon gives up on a message after repeated hop-budget NACKs. One
// message is one abandon: a duplicated NACK's clones all name the same
// original, and only the first finds its sequence number still pending.
func (l *Locality) relAbandon(m *netsim.Message) {
	rl := l.rel
	if rl == nil || m.RelSeq == 0 {
		return
	}
	rl.mu.Lock()
	if tc := rl.chanOf(m.RelChan); tc != nil && tc.clear(m.RelSeq) {
		rl.stats.Abandoned++
	}
	rl.mu.Unlock()
}

// relRebirth wipes the layer's record of this rank's previous
// incarnation: the new one restarts every send stream at sequence 1, so
// the old send windows and the world's receive row for this source must
// go — otherwise the reborn sender's first messages are suppressed as
// duplicate history.
func (l *Locality) relRebirth() {
	rl := l.rel
	if rl == nil {
		return
	}
	rl.mu.Lock()
	for _, tc := range rl.tx {
		if tc != nil {
			tc.ack(0, tc.nextSeq) // the pristine copies go back to the pool
		}
	}
	rl.tx = nil
	rl.mu.Unlock()
	rw := l.w.relw
	rw.mu.Lock()
	rw.rx[l.rank] = nil
	rw.mu.Unlock()
}

// relStaleDrop is the graceful-degradation path for deliveries whose
// block no longer exists anywhere (freed, or state destroyed by faults):
// with reliability on, the message is recorded, acknowledged (it will
// never become deliverable — retrying is pointless) and dropped, counted
// in StaleDrops. With the layer off it reports false and the caller
// keeps the original panic, because on a lossless fabric this is a true
// invariant violation.
func (l *Locality) relStaleDrop(m *netsim.Message) bool {
	if l.rel == nil {
		return false
	}
	l.relAccept(m)
	l.w.relw.staleDrops.Add(1)
	return true
}

// relLateCompletion absorbs a completion for an op that already
// completed (possible only on a faulty fabric, where a completion can be
// duplicated around the dedup horizon); reports whether it was absorbed.
func (l *Locality) relLateCompletion() bool {
	if l.rel == nil {
		return false
	}
	l.w.relw.lateCompletions.Add(1)
	return true
}

// UnackedMessages counts messages still held for retransmission across
// every locality's send channels. Once a workload has drained, a
// nonzero count means traffic was black-holed — neither delivered and
// acknowledged, nor NACKed back, nor explicitly abandoned — which the
// recovery experiments assert never happens, even across a crash.
func (w *World) UnackedMessages() int {
	n := 0
	for _, l := range w.locs {
		if l.rel == nil {
			continue
		}
		l.rel.mu.Lock()
		for _, tc := range l.rel.tx {
			if tc != nil {
				n += tc.n
			}
		}
		l.rel.mu.Unlock()
	}
	return n
}

// reliable reports whether the world runs the reliability layer.
func (c Config) reliable() bool {
	return c.Reliability.Force || c.Faults.Enabled()
}

// DeliveryStats returns the reliability layer's report: zero when the
// layer is off (apart from hop-budget NACK counts, which are maintained
// unconditionally).
func (w *World) DeliveryStats() DeliveryStats {
	var d DeliveryStats
	if rw := w.relw; rw != nil {
		rw.mu.Lock()
		d = rw.stats
		rw.mu.Unlock()
		d.StaleDrops, d.LateCompletions = rw.staleDrops.Load(), rw.lateCompletions.Load()
	}
	for _, l := range w.locs {
		d.HopCapNacks += uint64(l.Stats.LoopNacks.Load())
		if rl := l.rel; rl != nil {
			rl.mu.Lock()
			d.Tracked += rl.stats.Tracked
			d.Retransmits += rl.stats.Retransmits
			d.MigRetransmits += rl.stats.MigRetransmits
			d.Abandoned += rl.stats.Abandoned
			d.AcksReceived += rl.stats.AcksReceived
			rl.mu.Unlock()
		}
	}
	if w.fab != nil {
		d.Faults = w.fab.FaultSnapshot()
	} else {
		d.Faults = w.faults.Snapshot()
	}
	return d
}
