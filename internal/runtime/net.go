package runtime

import (
	"sync"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/nmagas"
)

// network abstracts how a locality's messages reach other localities, so
// the protocol code is identical on the DES fabric and the goroutine
// transport.
type network interface {
	// send injects m from rank from's host (injection overheads already
	// charged by the caller).
	send(from int, m *netsim.Message)
	// nicSend injects from NIC context (DMA completions) with no host
	// involvement.
	nicSend(from int, m *netsim.Message)
	// installRoute records authoritative owner knowledge at rank's NIC.
	installRoute(rank int, b gas.BlockID, owner int)
	// updateTable updates rank's NIC translation cache.
	updateTable(rank int, b gas.BlockID, owner int)
	// clearResident removes NIC state claiming b lives elsewhere, at the
	// locality where b just became resident.
	clearResident(rank int, b gas.BlockID)
	// route returns rank's NIC's *authoritative* knowledge for b (home
	// mirror entry or tombstone; never the evictable table). The host
	// uses it to rescue messages that were delivered just before a
	// migration completed.
	route(rank int, b gas.BlockID) (int, bool)
	// commitAtHome installs the post-migration authoritative route at
	// b's home, honoring the configured update-propagation policy.
	commitAtHome(home int, b gas.BlockID, owner int)
	// installReadRoute steers rank's read traffic for b to the replica
	// at target (replication install).
	installReadRoute(rank int, b gas.BlockID, target int)
	// dropReadRoute removes rank's read steering for b.
	dropReadRoute(rank int, b gas.BlockID)
	// dropAll removes all translation state for b everywhere (free).
	dropAll(b gas.BlockID)
	// tableLen reports rank's evictable NIC-table size (metrics).
	tableLen(rank int) int
}

// desNet adapts the simulated fabric.
type desNet struct {
	w *World
}

func (n *desNet) send(from int, m *netsim.Message)    { n.w.fab.NIC(from).Send(m) }
func (n *desNet) nicSend(from int, m *netsim.Message) { n.w.fab.NIC(from).Send(m) }

func (n *desNet) installRoute(rank int, b gas.BlockID, owner int) {
	n.w.fab.NIC(rank).InstallRoute(b, owner)
}

func (n *desNet) updateTable(rank int, b gas.BlockID, owner int) {
	n.w.fab.NIC(rank).Table.Update(b, owner)
}

func (n *desNet) clearResident(rank int, b gas.BlockID) {
	if n.w.mirror != nil {
		n.w.mirror.ClearResident(rank, b)
	}
}

func (n *desNet) route(rank int, b gas.BlockID) (int, bool) {
	return n.w.fab.NIC(rank).Route(b)
}

func (n *desNet) commitAtHome(home int, b gas.BlockID, owner int) {
	if n.w.mirror != nil {
		n.w.mirror.CommitAtHome(home, b, owner)
	}
}

func (n *desNet) installReadRoute(rank int, b gas.BlockID, target int) {
	n.w.fab.NIC(rank).InstallReadRoute(b, target)
}

func (n *desNet) dropReadRoute(rank int, b gas.BlockID) {
	n.w.fab.NIC(rank).DropReadRoute(b)
}

func (n *desNet) dropAll(b gas.BlockID) {
	if n.w.mirror != nil {
		n.w.mirror.Drop(b)
	}
}

func (n *desNet) tableLen(rank int) int {
	if t := n.w.fab.NIC(rank).Table; t != nil {
		return t.Len()
	}
	return 0
}

// chanNet is the goroutine-engine transport: messages hop between
// locality actors directly, and the per-rank nicState tables play the
// role of the NIC translation state, guarded by locks instead of the
// event loop.
type chanNet struct {
	w     *World
	nics  []*goNICState
	execs []*goExec // per-rank actors, for typed (closure-free) delivery
}

// nicShards is the shard count for an unbounded translation table. A
// bounded table (NICTableCap > 0) collapses to one shard so the LRU
// capacity stays a single global budget, exactly as on the DES NIC.
const nicShards = 8

// goNICState shards the per-rank translation state by block so
// concurrent senders resolving different blocks stop serializing on one
// mutex. Each shard is an RWMutex: translation lookups on an unbounded
// table are pure reads (Peek) and proceed in parallel; only route
// installs, table updates, and bounded-LRU lookups (which must touch
// recency) take the write lock.
type goNICState struct {
	shards  []nicShard
	mask    uint64
	bounded bool // capacity-limited table: lookups must maintain LRU order
}

type nicShard struct {
	mu     sync.RWMutex
	table  *netsim.TransTable
	routes map[gas.BlockID]int
	// readRoutes steers read traffic for replicated blocks to a nearby
	// holder (the goroutine-engine mirror of netsim.NIC.readRoutes).
	readRoutes map[gas.BlockID]int
}

func newGoNICState(tableCap int) *goNICState {
	n := nicShards
	if tableCap > 0 {
		n = 1
	}
	st := &goNICState{
		shards:  make([]nicShard, n),
		mask:    uint64(n - 1),
		bounded: tableCap > 0,
	}
	for i := range st.shards {
		st.shards[i].table = netsim.NewTransTable(tableCap)
		st.shards[i].routes = make(map[gas.BlockID]int)
		st.shards[i].readRoutes = make(map[gas.BlockID]int)
	}
	return st
}

func (n *goNICState) shard(b gas.BlockID) *nicShard {
	return &n.shards[uint64(b)&n.mask]
}

func (n *goNICState) lookup(b gas.BlockID) (int, bool) {
	s := n.shard(b)
	if n.bounded {
		// Lookup maintains LRU recency, so it needs the write lock.
		s.mu.Lock()
		defer s.mu.Unlock()
		if o, ok := s.table.Lookup(b); ok {
			return o, true
		}
		o, ok := s.routes[b]
		return o, ok
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if o, ok := s.table.Peek(b); ok {
		return o, true
	}
	o, ok := s.routes[b]
	return o, ok
}

func (n *goNICState) readRoute(b gas.BlockID) (int, bool) {
	s := n.shard(b)
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.readRoutes[b]
	return o, ok
}

func (n *goNICState) route(b gas.BlockID) (int, bool) {
	s := n.shard(b)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if o, ok := s.routes[b]; ok {
		return o, true
	}
	return s.table.Peek(b)
}

func (n *goNICState) updateTable(b gas.BlockID, owner int) {
	s := n.shard(b)
	s.mu.Lock()
	s.table.Update(b, owner)
	s.mu.Unlock()
}

// maybeLoseEntry applies the soft-error fault model to the shard the
// arriving block hashes to.
func (n *goNICState) maybeLoseEntry(b gas.BlockID, fi *netsim.FaultInjector) {
	s := n.shard(b)
	s.mu.Lock()
	fi.MaybeLoseEntry(s.table)
	s.mu.Unlock()
}

// peekTable reads the evictable table without touching recency (tests).
func (n *goNICState) peekTable(b gas.BlockID) (int, bool) {
	s := n.shard(b)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.table.Peek(b)
}

// bumpEpoch raises every shard's trusted membership epoch, fencing
// cached entries installed under older ones (the goroutine-engine
// mirror of Fabric.BumpEpoch).
func (n *goNICState) bumpEpoch(epoch uint64) {
	for i := range n.shards {
		s := &n.shards[i]
		s.mu.Lock()
		s.table.BumpEpoch(epoch)
		s.mu.Unlock()
	}
}

// reset wipes every shard's translation state (Join: the reborn NIC
// starts empty).
func (n *goNICState) reset() {
	for i := range n.shards {
		s := &n.shards[i]
		s.mu.Lock()
		s.table.Reset()
		s.routes = make(map[gas.BlockID]int)
		s.readRoutes = make(map[gas.BlockID]int)
		s.mu.Unlock()
	}
}

// tableLen sums evictable entries across shards (tests).
func (n *goNICState) tableLen() int {
	total := 0
	for i := range n.shards {
		s := &n.shards[i]
		s.mu.RLock()
		total += s.table.Len()
		s.mu.RUnlock()
	}
	return total
}

func newChanNet(w *World) *chanNet {
	n := &chanNet{w: w}
	for r := 0; r < w.cfg.Ranks; r++ {
		n.nics = append(n.nics, newGoNICState(w.cfg.NICTableCap))
	}
	for _, l := range w.locs {
		l := l
		ex := l.exec.(*goExec)
		ex.onMsg = func(m *netsim.Message) { n.arrive(l, m) }
		ex.onStep = l.handleMsg
		if l.coalesceAcks() {
			ex.onDrain = l.flushAcks
		}
		n.execs = append(n.execs, ex)
	}
	return n
}

func (c *chanNet) send(from int, m *netsim.Message) {
	if m.Dst == netsim.ByGVA {
		if !c.w.caps.NICTranslation {
			c.w.fail("chanNet: ByGVA send under address space %q", c.w.caps.Name)
		}
		if m.Read && c.w.replCount.Load() != 0 {
			// Replicated blocks steer reads to a nearby holder.
			if t, ok := c.nics[from].readRoute(m.Block); ok {
				m.Dst = t
			}
		}
		if m.Dst == netsim.ByGVA {
			if o, ok := c.nics[from].lookup(m.Block); ok {
				m.Dst = o
			} else {
				m.Dst = m.Target.Home()
			}
		}
	}
	if m.Dst < 0 || m.Dst >= len(c.nics) {
		c.w.fail("chanNet: send to bad rank %d", m.Dst)
	}
	if mem := c.w.mem; mem.active() {
		// Whole-node liveness fencing, mirroring netsim.NIC.transmit.
		if mem.Down(from) {
			// Outbound fence: a crashed locality transmits nothing.
			mem.downDrops.Add(1)
			return
		}
		if m.Dst != from && mem.Down(m.Dst) {
			if owner, ok := mem.Rehome(m.Block); ok && !mem.Down(owner) && m.Ctl == netsim.CtlNone {
				// The block already recovered onto a survivor: redirect in
				// flight instead of bouncing to the sender.
				m.Dst = owner
			} else if hint, dead := mem.DeadHint(m.Dst); dead && m.Ctl == netsim.CtlNone && !m.Target.IsNull() {
				// Declared dead: NACK back with a hint — the live home
				// (whose directory re-resolves authoritatively) when it is
				// not the corpse, else the surrogate.
				if h := m.Target.Home(); h != m.Dst && !mem.Down(h) {
					hint = h
				}
				mem.deadNacks.Add(1)
				nk := netsim.NewMessage()
				nk.Ctl = netsim.CtlNackLoop
				nk.Src = from
				nk.Dst = m.Src
				nk.Block = m.Block
				nk.Owner = hint
				nk.Wire = 32
				nk.Nacked = m
				c.deliver(nk, 0)
				return
			} else {
				// Down but not yet declared (or rank-addressed control
				// traffic with nowhere to bounce): silent loss is the
				// suspicion signal.
				mem.downDrops.Add(1)
				return
			}
		}
	}
	if fi := c.w.faults; fi != nil {
		act := fi.Decide(m)
		if act.Drop {
			return
		}
		if act.Duplicate {
			// Clone: both copies cross independent receive paths that
			// mutate hop counts and tables. Each copy is independently
			// owned and independently recycled.
			cp := netsim.NewMessage()
			*cp = *m
			c.deliver(cp, act.DupDelay)
		}
		c.deliver(m, act.Delay)
		return
	}
	c.deliver(m, 0)
}

// deliver hands m to the destination actor's typed mailbox — no
// capturing closure on the zero-delay fast path. Fault-injected delays
// are simulated nanoseconds; goWall converts them to wall clock through
// the Config.GoTimeScale knob (the goroutine transport has no simulated
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

func (c *chanNet) nicSend(from int, m *netsim.Message) { c.send(from, m) }

// arrive mirrors netsim.NIC.receive for the goroutine engine: it runs on
// the destination actor and applies the same routing decisions.
func (c *chanNet) arrive(l *Locality, m *netsim.Message) {
	st := c.nics[l.rank]
	if mem := c.w.mem; mem.active() && mem.Down(l.rank) {
		// Inbound fence: a crashed locality receives nothing. The message
		// is left to the collector (single-owner recycling must not race
		// a concurrent duplicate).
		mem.downDrops.Add(1)
		return
	}
	switch m.Ctl {
	case netsim.CtlTableUpdate:
		if mem := c.w.mem; mem.active() && m.Epoch < mem.Epoch() {
			// A control push from before the last membership change: the
			// table no longer trusts that epoch.
			mem.staleEpochDrops.Add(1)
			m.Release()
			return
		}
		st.updateTable(m.Block, m.Owner)
		m.Release() // consumed by the NIC; never reaches the host
		return
	case netsim.CtlNack, netsim.CtlNackLoop:
		l.onHostMsg(m)
		return
	}
	if fi := c.w.faults; fi != nil && c.w.caps.NICTranslation {
		// Soft-error model, mirroring netsim.NIC.receive: arrivals may
		// scribble over one evictable translation entry.
		st.maybeLoseEntry(m.Block, fi)
	}
	if m.Scatter && m.RelSeq == 0 && c.w.caps.NICTranslation {
		c.scatterBatch(l, st, m)
		return
	}
	if m.Target.IsNull() {
		l.onHostMsg(m)
		return
	}
	resident := l.residentForNIC(m.Block)
	if !resident && m.Read && l.residentForRead(m.Block) {
		// A fresh read replica lives here: serve the read in place.
		resident = true
	}
	if resident {
		if m.DMA {
			l.onDMA(m)
			return
		}
		l.onHostMsg(m)
		return
	}
	if !c.w.caps.NICTranslation {
		// Dumb NIC: the host sorts it out (queueing, forwarding,
		// faulting).
		l.onHostMsg(m)
		return
	}
	c.misroute(l, st, m)
}

// scatterBatch is the goroutine-engine NIC scatter engine, mirroring
// netsim.NIC.scatterBatch: a coalesced batch carrying per-parcel GVA
// sub-headers is split against this rank's translation state. Records
// whose blocks are resident reach the host in one up-call; the rest are
// regrouped by owner and forwarded in-network, never touching the host.
// A batch whose records are all resident is delivered unsplit — the
// common case costs no copy at all.
func (c *chanNet) scatterBatch(l *Locality, st *goNICState, m *netsim.Message) {
	allResident := true
	for r := netsim.NewScatterReader(m.Payload); ; {
		g, _, ok := r.Next()
		if !ok {
			break
		}
		if !l.residentForNIC(g.Block()) {
			allResident = false
			break
		}
	}
	if allResident {
		l.onHostMsg(m)
		return
	}
	l.Stats.ScatterSplits.Inc()
	hopsLeft := m.Hops < c.w.cfg.Policy.HopCap()
	var local []byte
	var groups map[int][]byte
	for r := netsim.NewScatterReader(m.Payload); ; {
		g, enc, ok := r.Next()
		if !ok {
			break
		}
		b := g.Block()
		if l.residentForNIC(b) {
			local = netsim.AppendScatterRecord(local, enc)
			continue
		}
		owner, known := st.route(b)
		if !known {
			owner = g.Home()
		}
		if owner == l.rank || !hopsLeft {
			// Mid-migration here, or the hop budget is spent: the host's
			// unbundler queues or re-routes this record in software.
			local = netsim.AppendScatterRecord(local, enc)
			continue
		}
		if groups == nil {
			groups = make(map[int][]byte)
		}
		groups[owner] = netsim.AppendScatterRecord(groups[owner], enc)
	}
	for owner, payload := range groups {
		l.Stats.ScatterForwards.Inc()
		fwd := netsim.NewMessage()
		fwd.Kind = m.Kind
		fwd.Src = m.Src
		fwd.Dst = owner
		fwd.Target = m.Target
		fwd.Block = m.Block
		fwd.Scatter = true
		fwd.Payload = payload
		fwd.Wire = 32 + len(payload)
		fwd.Hops = m.Hops + 1
		c.send(l.rank, fwd)
	}
	if local != nil {
		m.Payload = local
		m.Wire = 32 + len(local)
		l.onHostMsg(m)
		return
	}
	// Every record moved on; the arrived envelope is spent.
	m.Release()
}

func (c *chanNet) misroute(l *Locality, st *goNICState, m *netsim.Message) {
	if m.Read {
		if t, ok := st.readRoute(m.Block); ok && t != l.rank && m.Hops < c.w.cfg.Policy.HopCap() {
			// We cannot serve this read but know a replica holder:
			// forward the read there instead of chasing the owner.
			fwd := netsim.NewMessage()
			*fwd = *m
			fwd.Dst = t
			fwd.Hops = m.Hops + 1
			m.Release()
			c.send(l.rank, fwd)
			return
		}
	}
	owner, known := st.route(m.Block)
	if !known {
		if l.rank == m.Target.Home() {
			l.onHostMsg(m)
			return
		}
		owner = m.Target.Home()
	}
	if owner == l.rank {
		// Mid-migration: the host queues.
		l.onHostMsg(m)
		return
	}
	if mem := c.w.mem; mem.active() && mem.Down(owner) {
		// Best knowledge routes to a downed rank: redirect through the
		// recovery overlay, or terminate a confirmed-dead route at this
		// live host's stale-delivery path (mirroring netsim.NIC.misroute).
		if no, ok := mem.Rehome(m.Block); ok && !mem.Down(no) && no != l.rank {
			owner = no
		} else if mem.declaredDead(owner) {
			l.onHostMsg(m)
			return
		}
	}
	pol := c.w.cfg.Policy
	if !pol.ForwardInNetwork {
		nk := netsim.NewMessage()
		nk.Ctl = netsim.CtlNack
		nk.Src = l.rank
		nk.Dst = m.Src
		nk.Block = m.Block
		nk.Owner = owner
		nk.Wire = 32
		nk.Nacked = m // ownership of m transfers to the NACK
		c.send(l.rank, nk)
		return
	}
	m.Hops++
	if m.Hops > pol.HopCap() {
		// Hop budget exhausted: bounded fallback instead of the old hard
		// failure — NACK to the sender with the home as owner hint, which
		// counts bounces and eventually abandons (see onNICNack).
		nk := netsim.NewMessage()
		nk.Ctl = netsim.CtlNackLoop
		nk.Src = l.rank
		nk.Dst = m.Src
		nk.Block = m.Block
		nk.Owner = m.Target.Home()
		nk.Wire = 32
		nk.Nacked = m
		c.send(l.rank, nk)
		return
	}
	if pol.PushUpdates && m.Src != l.rank {
		c.nics[m.Src].updateTable(m.Block, owner)
	}
	l.traceOp(TraceNICForward, m.Block, uint64(int64(owner)), m.OpID)
	// Forward a fresh copy and recycle the arrived one: the forwarded
	// message is the sole owner from here on.
	fwd := netsim.NewMessage()
	*fwd = *m
	fwd.Dst = owner
	m.Release()
	c.send(l.rank, fwd)
}

func (c *chanNet) installRoute(rank int, b gas.BlockID, owner int) {
	s := c.nics[rank].shard(b)
	s.mu.Lock()
	s.routes[b] = owner
	s.mu.Unlock()
}

func (c *chanNet) updateTable(rank int, b gas.BlockID, owner int) {
	c.nics[rank].updateTable(b, owner)
}

func (c *chanNet) clearResident(rank int, b gas.BlockID) {
	s := c.nics[rank].shard(b)
	s.mu.Lock()
	delete(s.routes, b)
	delete(s.readRoutes, b)
	s.table.Invalidate(b)
	s.mu.Unlock()
}

func (c *chanNet) installReadRoute(rank int, b gas.BlockID, target int) {
	s := c.nics[rank].shard(b)
	s.mu.Lock()
	s.readRoutes[b] = target
	s.mu.Unlock()
}

func (c *chanNet) dropReadRoute(rank int, b gas.BlockID) {
	s := c.nics[rank].shard(b)
	s.mu.Lock()
	delete(s.readRoutes, b)
	s.mu.Unlock()
}

func (c *chanNet) route(rank int, b gas.BlockID) (int, bool) {
	s := c.nics[rank].shard(b)
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.routes[b]
	return o, ok
}

func (c *chanNet) commitAtHome(home int, b gas.BlockID, owner int) {
	c.installRoute(home, b, owner)
	if c.w.cfg.NMUpdate == nmagas.UpdateBroadcast {
		for r := range c.nics {
			if r != home {
				c.updateTable(r, b, owner)
			}
		}
	}
}

func (c *chanNet) dropAll(b gas.BlockID) {
	for _, st := range c.nics {
		s := st.shard(b)
		s.mu.Lock()
		delete(s.routes, b)
		delete(s.readRoutes, b)
		s.table.Invalidate(b)
		s.mu.Unlock()
	}
}

func (c *chanNet) tableLen(rank int) int { return c.nics[rank].tableLen() }
