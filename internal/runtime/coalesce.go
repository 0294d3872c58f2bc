package runtime

import (
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// Parcel coalescing: small active messages bound for the same locality
// are bundled into one wire message, amortizing per-message injection and
// NIC occupancy at the price of added latency. Each buffered parcel keeps
// a GVA sub-header in the batch payload (netsim.AppendScatterRecord), so
// under the network-managed space the batch is routed ByGVA and *split by
// the NIC* on arrival: resident records reach the host in one up-call,
// movers are forwarded in-network — the host re-route detour the
// software-managed baseline pays (and Stats.BatchReroutes counts) never
// happens. This is the trade experiment F13 measures.
//
// The buffers are sharded per destination rank and touched only on the
// locality's token, and the flush delay adapts: an EWMA of the inter-add
// gap per destination collapses the delay to zero once the observed load
// is too sparse for companions to be worth waiting for.

// CoalesceConfig enables batching when MaxParcels > 1.
type CoalesceConfig struct {
	// MaxParcels flushes a destination's buffer at this many parcels.
	MaxParcels int
}

func (c CoalesceConfig) enabled() bool { return c.MaxParcels > 1 }

const (
	// coalMaxBytes flushes a buffer early once its payload reaches it.
	coalMaxBytes = 64 << 10
	// coalMaxDelay bounds how long a lone parcel may wait for companions
	// (simulated time; scaled to wall clock under the goroutine engine).
	// It is also the adaptive cutoff: once the EWMA inter-add gap for a
	// destination reaches it, buffered parcels flush immediately instead
	// of waiting for companions that statistics say are not coming.
	coalMaxDelay = 2 * netsim.Microsecond
	// coalGapClamp bounds a single observed gap's contribution to the
	// EWMA, so one long idle period does not instantly flip a hot
	// destination into the no-wait regime.
	coalGapClamp = 2 * coalMaxDelay
)

// coalescer buffers encoded parcels per destination rank.
type coalescer struct {
	l          *Locality
	maxParcels int
	// scatter marks batches for in-NIC splitting (network-managed
	// space); other spaces unbundle host-side.
	scatter bool
	bufs    []coalBuf // one per destination rank
}

// coalBuf is one destination's buffer. The payload is assembled
// incrementally — add appends the scatter record straight into recs, so
// a flush hands the finished batch payload off without a gather copy.
type coalBuf struct {
	recs  []byte
	count int
	// gen increments on every flush; a delayed flush armed against one
	// generation is a no-op for any later one. This is what keeps a
	// timer armed by the first add of a since-flushed buffer from
	// draining its successor's lone parcels early.
	gen     uint64
	pending bool // a delayed flush is armed for the current generation
	// firstAdd is the latency clock at the generation's first add: the
	// flush-delay histogram records how long the oldest buffered parcel
	// waited.
	firstAdd int64

	// Adaptive-delay state: an EWMA of the gap between consecutive adds
	// (simulated time). haveGap distinguishes "no estimate yet" — a cold
	// buffer always waits the full configured delay.
	lastAdd netsim.VTime
	ewmaGap netsim.VTime
	haveGap bool
}

func newCoalescer(l *Locality, cfg CoalesceConfig) *coalescer {
	return &coalescer{
		l:          l,
		maxParcels: cfg.MaxParcels,
		scatter:    l.w.caps.NICTranslation,
		bufs:       make([]coalBuf, l.w.cfg.Ranks),
	}
}

// add buffers one encoded parcel for dst, flushing on thresholds, on a
// collapsed adaptive delay, or via the armed delay timer.
func (c *coalescer) add(dst int, enc []byte) {
	b := &c.bufs[dst]
	now := c.l.exec.simNow()
	// The flush-now decision uses the estimate as of *previous* adds: a
	// single long gap must not bypass the delay by itself (the lone
	// parcel after a burst still waits, preserving the latency trade the
	// experiments measure), but sustained sparse traffic converges the
	// EWMA past coalMaxDelay and stops paying the pointless wait.
	collapse := b.haveGap && b.ewmaGap >= coalMaxDelay
	if b.count > 0 || b.haveGap || b.lastAdd != 0 {
		gap := now - b.lastAdd
		if gap < 0 {
			gap = 0
		}
		gap = min(gap, coalGapClamp)
		if !b.haveGap {
			b.ewmaGap = gap
			b.haveGap = true
		} else {
			b.ewmaGap += (gap - b.ewmaGap) / 8
		}
	}
	b.lastAdd = now
	b.recs = netsim.AppendScatterRecord(b.recs, enc)
	b.count++
	if b.count == 1 {
		b.firstAdd = c.l.exec.latNow()
	}
	full := b.count >= c.maxParcels || len(b.recs) >= coalMaxBytes
	if full || collapse {
		c.send(dst, b.take(c))
		return
	}
	if !b.pending {
		b.pending = true
		c.armFlush(dst, b.gen)
	}
}

// take detaches the assembled payload and advances the generation,
// noting the flush (the oldest parcel's wait).
func (b *coalBuf) take(c *coalescer) []byte {
	c.l.note(noteCoalesceFlush, 0, uint64(b.firstAdd), 0)
	payload := b.recs
	b.recs = nil
	b.count = 0
	b.gen++
	b.pending = false
	return payload
}

// armFlush schedules the delayed flush for the given buffer generation.
// The flush drains this locality's own buffer and injects from its NIC:
// rank-local work.
func (c *coalescer) armFlush(dst int, gen uint64) {
	c.l.exec.After(coalMaxDelay, func() { c.flush(dst, gen, false) })
}

// flush sends dst's buffer: forced, whatever it holds; delayed, only if
// it still holds the generation that armed it.
func (c *coalescer) flush(dst int, gen uint64, force bool) {
	b := &c.bufs[dst]
	if b.count == 0 || (!force && b.gen != gen) {
		if b.gen == gen && !force {
			b.pending = false
		}
		return
	}
	c.send(dst, b.take(c))
}

// send injects the finished batch: addressed ByGVA and marked Scatter
// under the network-managed space, so NICs split it against their own
// tables, and to the (always resident) locality block elsewhere. It is
// the host's next step (opFlush): a task on DES, at once on the
// goroutine engine's token holder.
func (c *coalescer) send(dst int, payload []byte) {
	m := c.l.free.Message()
	m.Kind = kBatch
	m.Src = c.l.rank
	m.Target = c.l.w.LocalityGVA(dst)
	m.Payload = payload
	m.Wire = len(payload)
	m.Dst = dst
	if c.scatter {
		m.Scatter, m.Dst = true, netsim.ByGVA
	}
	c.l.exec.ExecMsg(0, opFlush, m)
}

// FlushAll forces out every pending buffer (drivers call this before
// quiescing a measurement). The driver claims the locality's token, so on
// the goroutine engine the flush injections have reached the transport
// when it returns.
func (l *Locality) FlushAll() {
	if l.coal == nil {
		return
	}
	l.exec.claim(func() {
		for d := range l.coal.bufs {
			l.coal.flush(d, 0, true)
		}
	})
}

// onBatch unbundles at the receiving host: resident targets execute
// directly; others re-route. Under NIC scatter the re-route leg is the
// exception (hop-budget exhaustion, a residency race with a migration
// commit) — Stats.BatchReroutes counts it, and the scatter acceptance
// test pins it to zero for a plain migrating workload.
func (l *Locality) onBatch(m *netsim.Message) {
	for r := netsim.NewScatterReader(m.Payload); ; {
		target, enc, ok := r.Next()
		if !ok {
			break
		}
		_, src, opID, err := parcel.Peek(enc)
		if err != nil {
			l.w.fail("rank %d: undecodable batched parcel: %v", l.rank, err)
		}
		// Sub-messages alias the batch payload's backing array; recycling
		// the batch envelope only drops its pointer, so the aliases stay
		// valid.
		sub := l.free.Message()
		sub.Kind = kParcel
		sub.Src = src
		sub.Target = target
		sub.Payload = enc
		sub.Wire = len(enc)
		sub.Block = target.Block()
		sub.OpID = opID
		if l.residentForNIC(sub.Block) {
			l.exec.Charge(l.w.cfg.Model.HandlerDispatch)
			l.execParcel(sub)
			continue
		}
		// Not here (migrated, or mid-move): give it back to the routing
		// machinery.
		if l.queueIfMoving(sub.Block, sub) {
			continue
		}
		l.stats.BatchReroutes++
		l.routeMsg(sub)
	}
}
