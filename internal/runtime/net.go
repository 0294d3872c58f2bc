package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/nmagas"
)

// network is how a locality's messages reach other localities and how
// the protocol reaches NIC translation state. The simulated fabric and
// the goroutine transport both provide it, so everything above it is
// identical on the two engines; below it both drive the one NIC protocol
// core in package netsim.
type network interface {
	// Transport is the part the directory→NIC mirror uses too: Send
	// (inject m at rank from's NIC; host injection overheads are already
	// charged), State (run fn on the piece of rank's translation state
	// that covers a block), Ranks and Defer.
	nmagas.Transport
	// EachState runs fn on every piece of rank's translation state.
	EachState(rank int, fn func(*netsim.TransState))
	// Stats snapshots rank's NIC counters.
	Stats(rank int) netsim.NICStats
}

// chanNet is the goroutine engine's driver of the NIC protocol core:
// messages hop between locality actors directly, and it owns only what
// is this engine's — lock shards around the shared translation-state
// type, atomically bumped counters, wall-clock fault delays and mailbox
// hand-off. Of the per-message counters it keeps the ones something
// reads — Sent and BytesTx (WorldStats.NetSent/NetBytes), DMADelivered,
// the fault counts — and leaves Received, BytesRx and HostDelivered to
// the simulator: it has no receive link or host boundary to model, and
// each would be one more atomic add on every message.
type chanNet struct {
	w     *World
	nics  []*goNIC
	execs []*goExec // per-rank actors, for typed (closure-free) delivery
}

// nicShards is the shard count for an unbounded translation table. A
// bounded table (NICTableCap > 0) collapses to one shard so the LRU
// capacity stays a single global budget, exactly as on the DES NIC.
const nicShards = 8

// goNIC is one rank's NIC: the core's configuration plus translation
// state sharded by block, so concurrent senders resolving different
// blocks stop serializing on one mutex.
type goNIC struct {
	netsim.NICCore
	shards []nicShard
	mask   uint64
	// stats is only ever touched atomically (count, Send, Stats): sender
	// goroutines, the rank's actor and stats readers all meet here.
	stats netsim.NICStats
}

// nicShard is one lock's worth of translation state. Source translation
// — the hot path — writes (hit counters, LRU order), so a plain mutex
// costs it no more than a read lock would and the rare pure readers
// (misroute, scatter, rescue) share it.
type nicShard struct {
	mu sync.Mutex
	netsim.TransState
}

// state runs fn on the shard covering b, under its lock.
func (n *goNIC) state(b gas.BlockID, fn func(*netsim.TransState)) {
	s := &n.shards[uint64(b)&n.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(&s.TransState)
}

// ReadRoute and Forward make a goNIC the core's view of its translation
// state (netsim.Routes), one short lock per lookup — never held across
// the core's calls into residency or membership.
func (n *goNIC) ReadRoute(b gas.BlockID) (t int, ok bool) {
	n.state(b, func(s *netsim.TransState) { t, ok = s.ReadRoute(b) })
	return t, ok
}

func (n *goNIC) Forward(b gas.BlockID) (o int, ok bool) {
	n.state(b, func(s *netsim.TransState) { o, ok = s.Forward(b) })
	return o, ok
}

func (n *goNIC) updateTable(b gas.BlockID, owner int) {
	n.state(b, func(s *netsim.TransState) { s.Table.Update(b, owner) })
}

// count bumps the counter a verdict names (host deliveries excepted, see
// chanNet).
func (n *goNIC) count(c netsim.Counter) {
	if c != netsim.CntNone && c != netsim.CntHostDelivered {
		atomic.AddUint64(n.stats.Slot(c), 1)
	}
}

func newChanNet(w *World) *chanNet {
	c := &chanNet{w: w}
	shards := nicShards
	if w.cfg.NICTableCap > 0 {
		shards = 1
	}
	for _, l := range w.locs {
		l := l
		n := &goNIC{
			NICCore: netsim.NICCore{
				Rank: l.rank, GVARouting: w.caps.NICTranslation, Policy: w.cfg.Policy,
				Resident: l.residentForNIC, ResidentRead: l.residentForRead,
			},
			shards: make([]nicShard, shards),
			mask:   uint64(shards - 1),
		}
		for i := range n.shards {
			n.shards[i].TransState = netsim.NewTransState(w.cfg.NICTableCap)
		}
		c.nics = append(c.nics, n)
		ex := l.exec.(*goExec)
		ex.onMsg = func(m *netsim.Message) { c.arrive(l, m) }
		ex.onStep = l.handleMsg
		if l.coalesceAcks() {
			ex.onDrain = l.flushAcks
			ex.inline = true
		}
		c.execs = append(c.execs, ex)
	}
	return c
}

func (c *chanNet) Ranks() int { return len(c.nics) }

func (c *chanNet) State(rank int, b gas.BlockID, fn func(*netsim.TransState)) {
	c.nics[rank].state(b, fn)
}

func (c *chanNet) EachState(rank int, fn func(*netsim.TransState)) {
	n := c.nics[rank]
	for i := range n.shards {
		s := &n.shards[i]
		s.mu.Lock()
		fn(&s.TransState)
		s.mu.Unlock()
	}
}

func (c *chanNet) Stats(rank int) (s netsim.NICStats) {
	live := &c.nics[rank].stats
	for k := netsim.CntNone + 1; k < netsim.NumCounters; k++ {
		*s.Slot(k) = atomic.LoadUint64(live.Slot(k))
	}
	return s
}

// Defer runs fn at once: with no simulated instant to batch within, the
// caller's step is as good a boundary as any.
func (c *chanNet) Defer(_ int, fn func()) { fn() }

// live is the membership view the core fences against: nil until the
// world has ever killed, retired or joined a locality, so unperturbed
// runs pay one atomic load.
func (c *chanNet) live() netsim.Liveness {
	if mem := c.w.mem; mem.active() {
		return mem
	}
	return nil
}

func (c *chanNet) Send(from int, m *netsim.Message) {
	n := c.nics[from]
	if !m.Target.IsNull() {
		m.Block = m.Target.Block()
	}
	if m.Dst == netsim.ByGVA {
		if !n.GVARouting {
			c.w.fail("chanNet: ByGVA send under address space %q", c.w.caps.Name)
		}
		n.state(m.Block, func(s *netsim.TransState) { s.Resolve(m) })
	}
	if m.Dst < 0 || m.Dst >= len(c.nics) {
		c.w.fail("chanNet: send to bad rank %d", m.Dst)
	}
	if v := n.Fence(c.live(), m); v.Act != netsim.ActPass {
		n.count(v.Count)
		if v.Act == netsim.ActNack {
			c.Send(from, n.Control(v.Ctl, m, v.To, 0))
		}
		return
	}
	atomic.AddUint64(&n.stats.Sent, 1)
	atomic.AddUint64(&n.stats.BytesTx, uint64(m.WireSize()))
	delay := netsim.VTime(0)
	if fi := c.w.faults; fi != nil {
		act := fi.Decide(m)
		if act.Drop {
			n.count(netsim.CntDropped)
			return
		}
		if act.Duplicate {
			n.count(netsim.CntDuplicated)
			// Clone: both copies cross independent receive paths that
			// mutate hop counts and tables. Each copy is independently
			// owned and independently recycled.
			cp := netsim.NewMessage()
			*cp = *m
			c.deliver(cp, act.DupDelay)
		}
		if delay = act.Delay; delay > 0 {
			n.count(netsim.CntDelayed)
		}
	}
	c.deliver(m, delay)
}

// deliver hands m to the destination's typed mailbox — no capturing
// closure on the zero-delay fast path, where a waited m may drain an
// idle destination on this goroutine (goExec.post). Fault-injected delays
// are simulated nanoseconds; goWall converts them to wall clock through
// goTimeScale (the goroutine transport has no simulated
// clock; a scaled wall-clock hold is enough to reorder the message past
// later traffic).
func (c *chanNet) deliver(m *netsim.Message, delay netsim.VTime) {
	ex := c.execs[m.Dst]
	if delay > 0 {
		time.AfterFunc(c.w.goWall(delay), func() { ex.execMsg(m) })
		return
	}
	ex.execMsg(m)
}

// arrive runs on the destination's token holder: it asks the core what
// to do with m and does it.
func (c *chanNet) arrive(l *Locality, m *netsim.Message) {
	n := c.nics[l.rank]
	lv := c.live()
	v := n.Classify(lv, m)
	if v.Act != netsim.ActDrop {
		if m.Ctl == netsim.CtlNone && c.w.cfg.Faults.TableLoss > 0 && n.GVARouting {
			// Soft-error model: arrivals may scribble over one evictable
			// entry of the shard the block hashes to.
			n.state(m.Block, func(s *netsim.TransState) {
				if c.w.faults.MaybeLoseEntry(s.Table) {
					n.count(netsim.CntTableLost)
				}
			})
		}
		if v.Act == netsim.ActMisroute {
			v = n.Misroute(n, lv, m)
		}
	}
	n.count(v.Count)
	switch v.Act {
	case netsim.ActApplyTable:
		// Every shard's table trusts the membership epoch (World.bumpEpoch).
		if netsim.ApplyTable(m, c.w.mem.Epoch(), n.updateTable) {
			n.count(netsim.CntStaleEpochDrops)
		}
		m.Release() // consumed by the NIC; never reaches the host
	case netsim.ActDeliverHost:
		l.onHostMsg(m)
	case netsim.ActDeliverDMA:
		l.onDMA(m)
	case netsim.ActNack:
		c.Send(l.rank, n.Control(v.Ctl, m, v.To, 0))
	case netsim.ActForward:
		l.traceOp(TraceNICForward, m.Block, uint64(int64(v.To)), m.OpID)
		if v.Push {
			c.Send(l.rank, n.Control(netsim.CtlTableUpdate, m, v.To, c.w.mem.Epoch()))
		}
		// Forward in place: the arrived message is the forwarded one.
		m.Dst = v.To
		c.Send(l.rank, m)
	case netsim.ActScatter:
		fwd, host, split := n.SplitScatter(n, m)
		if split {
			n.count(netsim.CntScatterSplits)
		}
		for _, f := range fwd {
			n.count(netsim.CntScatterForwards)
			c.Send(l.rank, f)
		}
		if host {
			l.onHostMsg(m)
		} else {
			m.Release() // every record moved on; the envelope is spent
		}
	}
}
