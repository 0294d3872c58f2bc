package runtime

import (
	"sync"
	"time"

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
// The buffers are sharded per destination rank, each behind its own
// mutex, and the flush delay adapts: an EWMA of the inter-add gap per
// destination collapses the delay to zero once the observed load is too
// sparse for companions to be worth waiting for.

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
	bufs    []coalBuf // one per destination rank, independently locked
}

// coalBuf is one destination's buffer. The payload is assembled
// incrementally — add appends the scatter record straight into recs, so
// a flush hands the finished batch payload off without a gather copy.
type coalBuf struct {
	mu    sync.Mutex
	recs  []byte
	count int
	// gen increments on every flush; a delayed flush armed against one
	// generation is a no-op for any later one. This is what keeps a
	// timer armed by the first add of a since-flushed buffer from
	// draining its successor's lone parcels early.
	gen     uint64
	pending bool // a delayed flush is armed for the current generation
	// firstAdd is the latency clock at the generation's first add
	// (Config.Metrics only): the flush-delay histogram records how long
	// the oldest buffered parcel waited.
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
	now := c.l.simNow()
	b.mu.Lock()
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
	if b.count == 1 && c.l.w.lat != nil {
		b.firstAdd = c.l.latNow()
	}
	full := b.count >= c.maxParcels || len(b.recs) >= coalMaxBytes
	if full || collapse {
		payload := b.take(c)
		b.mu.Unlock()
		c.send(dst, payload)
		return
	}
	if !b.pending {
		b.pending = true
		gen := b.gen
		b.mu.Unlock()
		c.armFlush(dst, gen)
		return
	}
	b.mu.Unlock()
}

// take detaches the assembled payload and advances the generation,
// recording the oldest parcel's wait into the flush-delay histogram.
// Caller holds b.mu.
func (b *coalBuf) take(c *coalescer) []byte {
	if w := c.l.w; w.lat != nil {
		w.lat.coalesceFlush.Record(c.l.latNow() - b.firstAdd)
	}
	payload := b.recs
	b.recs = nil
	b.count = 0
	b.gen++
	b.pending = false
	return payload
}

// armFlush schedules the delayed flush for the given buffer generation.
func (c *coalescer) armFlush(dst int, gen uint64) {
	if l := c.l; l.eng != nil {
		// The flush drains this locality's own buffer and injects from its
		// NIC: rank-local work, armed on the rank's own timeline.
		l.eng.AfterRank(l.rank, coalMaxDelay, func() { c.flushGen(dst, gen) })
		return
	}
	time.AfterFunc(c.l.w.goWall(coalMaxDelay), func() { c.flushGen(dst, gen) })
}

// flushGen is the delayed flush: it fires only if the buffer still holds
// the generation that armed it.
func (c *coalescer) flushGen(dst int, gen uint64) {
	b := &c.bufs[dst]
	b.mu.Lock()
	if b.gen != gen || b.count == 0 {
		if b.gen == gen {
			b.pending = false
		}
		b.mu.Unlock()
		return
	}
	payload := b.take(c)
	b.mu.Unlock()
	c.send(dst, payload)
}

// flush forces dst's buffer out regardless of generation.
func (c *coalescer) flush(dst int) {
	b := &c.bufs[dst]
	b.mu.Lock()
	if b.count == 0 {
		b.mu.Unlock()
		return
	}
	payload := b.take(c)
	b.mu.Unlock()
	c.send(dst, payload)
}

// send injects the finished batch. Under the network-managed space the
// batch is addressed ByGVA and marked Scatter, so NICs split it against
// their own tables; elsewhere it is rank-addressed and unbundled by the
// destination host. On the goroutine engine the injection happens inline
// on the calling goroutine — the transport is thread-safe, and it makes
// FlushAll synchronous (when FlushAll returns, the batches are in the
// destination mailboxes).
func (c *coalescer) send(dst int, payload []byte) {
	m := netsim.NewMessage()
	m.Kind = kBatch
	m.Src = c.l.rank
	m.Target = c.l.w.LocalityGVA(dst)
	m.Payload = payload
	m.Wire = len(payload)
	if c.scatter {
		m.Scatter = true
		if c.l.w.eng == nil {
			c.l.inject(m, netsim.ByGVA)
			return
		}
		c.l.exec.Exec(0, func() { c.l.inject(m, netsim.ByGVA) })
		return
	}
	// A batch targets the locality block, which is always resident, so
	// routing is plain rank addressing without NIC translation.
	if c.l.w.eng == nil {
		c.l.inject(m, dst)
		return
	}
	c.l.exec.Exec(0, func() { c.l.inject(m, dst) })
}

// FlushAll forces out every pending buffer (drivers call this before
// quiescing a measurement). On the goroutine engine it is synchronous:
// the flush injections have reached the transport when it returns.
func (l *Locality) FlushAll() {
	if l.coal == nil {
		return
	}
	for d := range l.coal.bufs {
		l.coal.flush(d)
	}
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
		sub := netsim.NewMessage()
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
		l.Stats.BatchReroutes.Inc()
		l.routeMsg(sub)
	}
}
