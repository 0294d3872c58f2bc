package runtime

import (
	"sort"
	"sync"
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
// Receiver state is held at world scope rather than per locality. A
// production system would migrate per-block delivery records along with
// the block; modeling the dedup store as logically shared gives the same
// exactly-once guarantee without simulating that transfer, and keeps a
// late duplicate that trails a completed migration from re-executing at
// the new owner (see DESIGN.md §8).

// relAckWire approximates an ack descriptor on the wire.
const relAckWire = 24

// relBounceCap bounds how many hop-budget NACKs a single message may
// suffer before its sender abandons it (the routing state is broken;
// retrying forever would livelock).
const relBounceCap = 3

// ReliabilityConfig tunes the reliable-delivery layer.
type ReliabilityConfig struct {
	// Force enables the layer even with a zero FaultPlan (tests use this
	// to measure the no-fault overhead).
	Force bool
	// RTO is the initial per-channel retransmission timeout
	// (0 = 200µs, far above any simulated round trip).
	RTO netsim.VTime
	// MaxRTO caps the exponential backoff (0 = 16×RTO).
	MaxRTO netsim.VTime
	// MaxAttempts bounds total transmissions of one message before the
	// sender abandons it (0 = 12).
	MaxAttempts int
}

func (r ReliabilityConfig) withDefaults() ReliabilityConfig {
	if r.RTO <= 0 {
		r.RTO = 200_000 // 200µs
	}
	if r.MaxRTO <= 0 {
		r.MaxRTO = 16 * r.RTO
	}
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

// relKey identifies one sender stream: originating rank + channel.
type relKey struct {
	src int
	ch  int32
}

// relRxState is the receive-side dedup record for one stream: every
// sequence number <= cum has been applied, plus the out-of-order set
// above it.
type relRxState struct {
	cum   uint64
	above map[uint64]struct{}
}

func (rx *relRxState) seen(seq uint64) bool {
	if seq <= rx.cum {
		return true
	}
	_, ok := rx.above[seq]
	return ok
}

func (rx *relRxState) record(seq uint64) {
	rx.above[seq] = struct{}{}
	for {
		if _, ok := rx.above[rx.cum+1]; !ok {
			return
		}
		delete(rx.above, rx.cum+1)
		rx.cum++
	}
}

// relWorld is the world-scoped half of the layer: the receive-side dedup
// store and the counters.
type relWorld struct {
	mu    sync.Mutex
	rx    map[relKey]*relRxState
	stats DeliveryStats
}

func newRelWorld() *relWorld {
	return &relWorld{rx: make(map[relKey]*relRxState)}
}

func (rw *relWorld) stream(k relKey) *relRxState {
	rx := rw.rx[k]
	if rx == nil {
		rx = &relRxState{above: make(map[uint64]struct{})}
		rw.rx[k] = rx
	}
	return rx
}

// relPending is one unacked message held for retransmission. m is a
// pristine copy taken before the transport mutated routing fields;
// deadline is the clock reading after which the message is considered
// lost (a channel timer firing earlier leaves it alone — without the
// deadline, a message injected just before the timer fires would be
// spuriously retransmitted).
type relPending struct {
	m        *netsim.Message
	attempts int
	deadline netsim.VTime
}

// relTxChan is the send side of one channel.
type relTxChan struct {
	nextSeq uint64
	unacked map[uint64]*relPending
	rto     netsim.VTime
	armed   bool
}

// relLoc is the per-locality send state.
type relLoc struct {
	mu sync.Mutex
	tx map[int32]*relTxChan
}

// rel returns the locality's send state, nil when the layer is off.
func (l *Locality) relOn() bool { return l.rel != nil }

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
	if l.rel == nil || m.RelSeq != 0 || m.Ctl != netsim.CtlNone || m.Kind == kRelAck ||
		m.Kind == kMemberPing || m.Kind == kMemberPong {
		return
	}
	ch := relChanOf(m)
	l.rel.mu.Lock()
	tc := l.rel.tx[ch]
	if tc == nil {
		tc = &relTxChan{unacked: make(map[uint64]*relPending), rto: l.w.relCfg.RTO}
		l.rel.tx[ch] = tc
	}
	tc.nextSeq++
	m.RelChan = ch
	m.RelSeq = tc.nextSeq
	cp := *m
	tc.unacked[m.RelSeq] = &relPending{m: &cp, attempts: 1, deadline: l.relNow() + tc.rto}
	arm := !tc.armed
	tc.armed = true
	rto := tc.rto
	l.rel.mu.Unlock()

	rw := l.w.relw
	rw.mu.Lock()
	rw.stats.Tracked++
	rw.mu.Unlock()
	if arm {
		l.relArm(ch, rto)
	}
}

// relNow reads the clock retransmission deadlines live on: simulated
// time under DES, wall time divided by Config.GoTimeScale under the
// goroutine engine (so timeouts specified in simulated ns run scaled-up
// on the wall clock and real scheduling jitter does not masquerade as
// loss).
func (l *Locality) relNow() netsim.VTime {
	if l.eng != nil {
		return l.eng.Now()
	}
	return netsim.VTime(time.Now().UnixNano() / int64(l.w.cfg.GoTimeScale))
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

// relTimer fires for channel ch: retransmit everything unacked (oldest
// first, in sequence order for determinism), back off, re-arm while work
// remains.
func (l *Locality) relTimer(ch int32) {
	if l.rel == nil {
		return
	}
	l.rel.mu.Lock()
	tc := l.rel.tx[ch]
	if tc == nil {
		l.rel.mu.Unlock()
		return
	}
	if len(tc.unacked) == 0 {
		tc.armed = false
		tc.rto = l.w.relCfg.RTO
		l.rel.mu.Unlock()
		return
	}
	seqs := make([]uint64, 0, len(tc.unacked))
	for s := range tc.unacked {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	now := l.relNow()
	var resend []*netsim.Message
	var resent []*relPending
	var mig, abandoned uint64
	var nextDue netsim.VTime
	for _, s := range seqs {
		p := tc.unacked[s]
		if p.deadline > now {
			// Still within its grace period; the channel timer just fired
			// early for this message.
			if nextDue == 0 || p.deadline < nextDue {
				nextDue = p.deadline
			}
			continue
		}
		if p.attempts >= l.w.relCfg.MaxAttempts {
			delete(tc.unacked, s)
			abandoned++
			continue
		}
		p.attempts++
		resent = append(resent, p)
		// The clone travels and is recycled by whoever consumes it; the
		// pristine copy p.m stays here for the next retransmission.
		cp := netsim.NewMessage()
		*cp = *p.m
		cp.Hops = 0
		resend = append(resend, cp)
		if cp.MigCtl {
			mig++
		}
	}
	if len(resend) > 0 {
		// Back off only on evidence of loss.
		tc.rto *= 2
		if tc.rto > l.w.relCfg.MaxRTO {
			tc.rto = l.w.relCfg.MaxRTO
		}
		for _, p := range resent {
			p.deadline = now + tc.rto
		}
	}
	// A channel pinned at its backoff ceiling with work still unacked
	// means something is silently eating traffic — the whole-node
	// failure signature. Raise membership suspicion (outside the lock,
	// below); the sweep is armed-gated and single-flight, so healthy
	// worlds and already-probing ones pay nothing.
	ceiling := len(resend) > 0 && tc.rto >= l.w.relCfg.MaxRTO
	next := tc.rto
	if len(resend) == 0 && nextDue > now {
		next = nextDue - now
	}
	again := len(tc.unacked) > 0
	tc.armed = again
	if !again {
		tc.rto = l.w.relCfg.RTO
	}
	l.rel.mu.Unlock()

	rw := l.w.relw
	rw.mu.Lock()
	rw.stats.Retransmits += uint64(len(resend))
	rw.stats.MigRetransmits += mig
	rw.stats.Abandoned += abandoned
	rw.mu.Unlock()

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
	if l.rel == nil || m.RelSeq == 0 {
		return true
	}
	rw := l.w.relw
	rw.mu.Lock()
	rx := rw.stream(relKey{src: m.Src, ch: m.RelChan})
	dup := rx.seen(m.RelSeq)
	if dup {
		rw.stats.DupsSuppressed++
	} else {
		rx.record(m.RelSeq)
		if m.Hops > rw.stats.MaxHops {
			rw.stats.MaxHops = m.Hops
		}
	}
	cum := rx.cum
	rw.stats.AcksSent++
	rw.mu.Unlock()
	l.relSendAck(m, cum)
	if dup {
		l.trace(TraceDupSuppressed, m.Block, m.RelSeq)
	}
	return !dup
}

// relDupPeek reports whether m is already applied, without recording
// anything — used before taking an active-count so a late duplicate
// cannot even transiently pin its block. It re-acks known duplicates.
func (l *Locality) relDupPeek(m *netsim.Message) bool {
	if l.rel == nil || m.RelSeq == 0 {
		return false
	}
	rw := l.w.relw
	rw.mu.Lock()
	rx := rw.rx[relKey{src: m.Src, ch: m.RelChan}]
	dup := rx != nil && rx.seen(m.RelSeq)
	var cum uint64
	if dup {
		rw.stats.DupsSuppressed++
		rw.stats.AcksSent++
		cum = rx.cum
	}
	rw.mu.Unlock()
	if dup {
		l.relSendAck(m, cum)
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
	rx := rw.rx[relKey{src: m.Src, ch: m.RelChan}]
	seen := rx != nil && rx.seen(m.RelSeq)
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
	ack.Kind = kRelAck
	ack.Src = l.rank
	ack.Dst = m.Src
	ack.Wire = relAckWire
	ack.RelChan = m.RelChan
	ack.RelSeq = m.RelSeq
	ack.RelCum = cum
	if m.Src == l.rank {
		l.w.locs[l.rank].relOnAck(ack)
		ack.Release()
		return
	}
	l.w.net.Send(l.rank, ack)
}

// relOnAck clears acked messages at the sender: the named sequence plus
// everything at or below the cumulative horizon.
func (l *Locality) relOnAck(m *netsim.Message) {
	if l.rel == nil {
		return
	}
	l.rel.mu.Lock()
	if tc := l.rel.tx[m.RelChan]; tc != nil {
		delete(tc.unacked, m.RelSeq)
		for s := range tc.unacked {
			if s <= m.RelCum {
				delete(tc.unacked, s)
			}
		}
		if len(tc.unacked) == 0 {
			tc.rto = l.w.relCfg.RTO
		}
	}
	l.rel.mu.Unlock()
	rw := l.w.relw
	rw.mu.Lock()
	rw.stats.AcksReceived++
	rw.mu.Unlock()
}

// relAbandon gives up on a message after repeated hop-budget NACKs.
func (l *Locality) relAbandon(m *netsim.Message) {
	if l.rel != nil && m.RelSeq != 0 {
		l.rel.mu.Lock()
		if tc := l.rel.tx[m.RelChan]; tc != nil {
			delete(tc.unacked, m.RelSeq)
		}
		l.rel.mu.Unlock()
	}
	if rw := l.w.relw; rw != nil {
		rw.mu.Lock()
		rw.stats.Abandoned++
		rw.mu.Unlock()
	}
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
	rw := l.w.relw
	rw.mu.Lock()
	rw.stats.StaleDrops++
	rw.mu.Unlock()
	return true
}

// relLateCompletion absorbs a completion for an op that already
// completed (possible only on a faulty fabric, where a completion can be
// duplicated around the dedup horizon); reports whether it was absorbed.
func (l *Locality) relLateCompletion() bool {
	if l.rel == nil {
		return false
	}
	rw := l.w.relw
	rw.mu.Lock()
	rw.stats.LateCompletions++
	rw.mu.Unlock()
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
			n += len(tc.unacked)
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
	if w.relw != nil {
		w.relw.mu.Lock()
		d = w.relw.stats
		w.relw.mu.Unlock()
	}
	for _, l := range w.locs {
		d.HopCapNacks += uint64(l.Stats.LoopNacks.Load())
	}
	if w.fab != nil {
		d.Faults = w.fab.FaultSnapshot()
	} else {
		d.Faults = w.faults.Snapshot()
	}
	return d
}
