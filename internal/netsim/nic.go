package netsim

import (
	"fmt"

	"nmvgas/internal/gas"
)

// DefaultMaxHops is the forward-hop budget when Policy.MaxHops is zero.
const DefaultMaxHops = 16

// Policy selects how a GVA-routing NIC reacts to traffic for blocks it
// does not own. The defaults (both true) are the paper's design; the
// alternatives exist for the ablation benchmarks.
type Policy struct {
	// ForwardInNetwork bounces misdelivered traffic straight to the
	// current owner at NIC cost. When false, the NIC NACKs to the source
	// host instead, which must resend (a software round-trip).
	ForwardInNetwork bool
	// PushUpdates makes a forwarding NIC push the correct owner to the
	// source NIC's table so later traffic goes direct.
	PushUpdates bool
	// MaxHops bounds in-network forwarding chains (0 = DefaultMaxHops).
	// A message exceeding the budget is NACKed back to its sender with
	// the home as owner hint instead of chasing a broken route forever.
	MaxHops int
}

// HopCap returns the effective forward-hop budget.
func (p Policy) HopCap() int {
	if p.MaxHops > 0 {
		return p.MaxHops
	}
	return DefaultMaxHops
}

// DefaultPolicy returns the paper's configuration: in-network forwarding
// with pushed table updates.
func DefaultPolicy() Policy {
	return Policy{ForwardInNetwork: true, PushUpdates: true, MaxHops: DefaultMaxHops}
}

// NICStats are cumulative per-NIC counters.
type NICStats struct {
	Sent, Received   uint64
	BytesTx, BytesRx uint64
	Forwards         uint64
	Nacks            uint64
	TableUpdatesRx   uint64
	DMADelivered     uint64
	HostDelivered    uint64

	// ScatterSplits counts batches this NIC split on arrival because at
	// least one record's block was not resident; ScatterForwards counts
	// the per-owner sub-batches it forwarded in-network as a result.
	ScatterSplits   uint64
	ScatterForwards uint64

	// Fault-injection counters (all zero on a healthy fabric). Dropped,
	// Duplicated and Delayed are charged to the transmitting NIC;
	// TableLost and LoopNacks to the receiving one.
	Dropped    uint64
	Duplicated uint64
	Delayed    uint64
	TableLost  uint64
	LoopNacks  uint64

	// Whole-node failure counters. DownDrops counts messages silently
	// swallowed because a link was down (crashed locality, not yet
	// declared dead — the silence is what drives suspicion). DeadNacks
	// counts sends to a membership-declared-dead rank bounced back with
	// a home hint instead of delivered to the corpse. StaleEpochDrops
	// counts control pushes ignored because they carried an older
	// membership epoch than the receiving table trusts.
	DownDrops       uint64
	DeadNacks       uint64
	StaleEpochDrops uint64
}

// NIC models one locality's network interface. When GVARouting is on (the
// network-managed mode), the NIC resolves GVA-addressed traffic from its
// translation table, forwards in-network when a block has moved, and
// absorbs table-update control messages — all without host involvement.
// With GVARouting off it is a plain dumb NIC: hosts must resolve
// destinations in software.
type NIC struct {
	Rank       int
	GVARouting bool
	Policy     Policy

	// Table is the bounded NIC-resident translation cache consulted at
	// injection time. Entries installed by forwarding/commit control
	// traffic land here too.
	Table *TransTable

	// routes holds entries this NIC is authoritative for: the home
	// mirror of the directory plus forwarding tombstones left by
	// migrations away from this locality. Unlike Table it is never
	// evicted, because losing authoritative state would break routing.
	routes map[gas.BlockID]int

	// readRoutes steers read traffic (Message.Read) for replicated
	// blocks to a nearby replica holder instead of the owner. Like
	// routes it is authoritative (installed by the replication
	// protocol, never evicted); unlike routes it only applies to reads
	// — writes and parcels still follow ownership.
	readRoutes map[gas.BlockID]int

	// Resident reports whether the host currently holds a block. Set by
	// the runtime before traffic flows.
	Resident func(gas.BlockID) bool
	// ResidentRead reports whether the host holds a fresh read replica
	// of a block it does not own, letting the NIC DMA-serve reads that
	// readRoutes steered here without any host detour. Nil when the
	// runtime has no replication support.
	ResidentRead func(gas.BlockID) bool
	// HostDeliver hands a message to the host runtime (two-sided
	// delivery, DMA faults, NACKs). The runtime charges its own host
	// receive overheads.
	HostDeliver func(*Message)
	// DMADeliver performs a one-sided transfer against host memory at
	// NIC cost. Only called when the block is resident.
	DMADeliver func(*Message)
	// OnForward, when set, observes in-network redirects (m rewritten to
	// owner) at zero simulated cost — a tracing hook, not a participant.
	OnForward func(m *Message, owner int)

	fab *Fabric
	// eng is the engine face that schedules this rank's events: the
	// fabric engine itself in classic mode, the rank's shard engine under
	// sharding. All NIC state (txFree/rxFree/Table/routes/Stats) is
	// touched only from this rank's event context, which is what makes
	// window-parallel execution race-free.
	eng *Engine
	// fi is this NIC's fault stream: the fabric-shared injector in
	// classic mode, a per-rank fork under sharding.
	fi     *FaultInjector
	txFree VTime
	rxFree VTime
	Stats  NICStats
}

// Engine returns the engine face this NIC schedules on (its rank's shard
// engine under sharding).
func (n *NIC) Engine() *Engine { return n.eng }

// InstallRoute records authoritative owner knowledge (home mirror entry or
// forwarding tombstone) at NIC table-update cost. The runtime calls this
// at migration commit.
func (n *NIC) InstallRoute(block gas.BlockID, owner int) {
	n.routes[block] = owner
}

// DropRoute removes authoritative knowledge for block (used by free).
func (n *NIC) DropRoute(block gas.BlockID) {
	delete(n.routes, block)
	delete(n.readRoutes, block)
}

// ResetState wipes every translation structure on this NIC — the
// evictable table, the authoritative routes, and the read steering.
// Used when a dead locality rejoins the world: the reborn NIC starts
// empty and relearns its state through the catch-up sync and ordinary
// control traffic. Link occupancy horizons and counters survive.
func (n *NIC) ResetState() {
	n.Table.Reset()
	n.routes = make(map[gas.BlockID]int)
	n.readRoutes = make(map[gas.BlockID]int)
}

// InstallReadRoute steers this NIC's read traffic for block to the
// replica at target. The replication runtime calls it at install time.
func (n *NIC) InstallReadRoute(block gas.BlockID, target int) {
	n.readRoutes[block] = target
}

// DropReadRoute removes block's read steering (unreplicate, free, or the
// local rank becoming the owner).
func (n *NIC) DropReadRoute(block gas.BlockID) {
	delete(n.readRoutes, block)
}

// Route returns this NIC's authoritative knowledge for block, if any.
func (n *NIC) Route(block gas.BlockID) (int, bool) {
	o, ok := n.routes[block]
	return o, ok
}

// Send injects a message. The caller has already paid host injection
// overhead and set m.Src (forwarded and re-sent messages keep their
// original source so completions and table updates reach the right
// place); this charges NIC-side costs: source translation (when routing
// by GVA), transmit occupancy, serialization, and wire latency.
func (n *NIC) Send(m *Message) {
	if !m.Target.IsNull() {
		m.Block = m.Target.Block()
	}
	cost := VTime(0)
	if m.Dst == ByGVA {
		if !n.GVARouting {
			panic("netsim: ByGVA send on a NIC without GVA routing")
		}
		cost += n.fab.Model.NICLookup
		if target, ok := n.readRoutes[m.Block]; ok && m.Read {
			// Replicated block: reads go to the nearby replica the
			// protocol picked for this rank, not the owner.
			m.Dst = target
		} else if owner, ok := n.Table.Lookup(m.Block); ok {
			m.Dst = owner
		} else if owner, ok := n.routes[m.Block]; ok {
			m.Dst = owner
		} else {
			// No local knowledge: route to the home locality, whose NIC
			// is authoritative.
			m.Dst = m.Target.Home()
		}
	}
	n.transmit(m, cost)
}

// transmit charges tx occupancy (scaled by the path's bandwidth taper)
// and schedules wire arrival at the destination NIC; the receiving NIC's
// rx link then serializes the bytes before handing the message up, which
// is what makes incast visible.
func (n *NIC) transmit(m *Message, extra VTime) {
	if m.Dst < 0 || m.Dst >= len(n.fab.NICs) {
		panic(fmt.Sprintf("netsim: transmit to bad rank %d", m.Dst))
	}
	if lv := n.fab.Live; lv != nil {
		if lv.Down(n.Rank) {
			// Outbound fence: a crashed locality's NIC transmits nothing.
			n.Stats.DownDrops++
			return
		}
		if m.Dst != n.Rank && lv.Down(m.Dst) {
			if owner, ok := lv.Rehome(m.Block); ok && !lv.Down(owner) && m.Ctl == CtlNone {
				// The block already recovered onto a survivor (promoted
				// replica or re-homed entry): redirect in flight instead of
				// bouncing to the sender.
				m.Dst = owner
			} else if hint, dead := lv.DeadHint(m.Dst); dead && m.Ctl == CtlNone && !m.Target.IsNull() {
				// The destination has been declared dead by membership:
				// NACK back to the sender with a hint (the PR 2 bounce
				// path) instead of delivering to a corpse.
				if h := m.Target.Home(); h != m.Dst && !lv.Down(h) {
					// Prefer the live home as the hint: its directory
					// re-resolves authoritatively, where the surrogate can
					// only terminate traffic for genuinely lost blocks.
					hint = h
				}
				n.Stats.DeadNacks++
				n.nackWith(CtlNackLoop, m, hint)
				return
			} else {
				// Down but not yet declared (or rank-addressed control
				// traffic with nowhere to bounce): the message silently
				// vanishes, and that silence is exactly what raises
				// suspicion upstream.
				n.Stats.DownDrops++
				return
			}
		}
	}
	eng, model := n.eng, n.fab.Model
	wire := m.Wire
	if wire == 0 {
		wire = wireHeader
	}
	hops := 1
	bw := 1.0
	if m.Dst != n.Rank {
		hops = n.fab.Topo.Hops(n.Rank, m.Dst)
		bw = n.fab.Topo.BWFactor(n.Rank, m.Dst)
	}
	m.rxSer = VTime(float64(wire) * model.GByte * bw)
	ser := model.Gap + m.rxSer
	start := eng.Now() + extra
	if n.txFree > start {
		start = n.txFree
	}
	n.txFree = start + ser
	n.Stats.Sent++
	n.Stats.BytesTx += uint64(wire)
	arrive := n.txFree + model.Latency*VTime(hops)
	if fi := n.fi; fi != nil {
		act := fi.Decide(m)
		if act.Drop {
			n.Stats.Dropped++
			return
		}
		if act.Duplicate {
			n.Stats.Duplicated++
			// The clone is independently owned: both copies cross receive
			// paths that mutate, forward and release them.
			cp := NewMessage()
			*cp = *m
			n.scheduleArrival(cp, arrive+act.DupDelay)
		}
		if act.Delay > 0 {
			n.Stats.Delayed++
			arrive += act.Delay
		}
	}
	n.scheduleArrival(m, arrive)
}

// The NIC's typed event steps (Engine.AtRankMsg): the message in flight
// is the scheduled unit, so the per-message path builds no closures.
const (
	opArrive     uint8 = iota // wire arrival: charge rx-link occupancy
	opRxReady                 // rx link drained: receive
	opTableApply              // NICUpdate elapsed: apply a table push
	opDMADone                 // DMA copy elapsed: hand to the DMA handler
)

// scheduleArrival lands m on the destination NIC at the given time. The
// arrival is the destination rank's event: it runs on dst's shard and
// touches only dst's state. Under sharding a cross-shard arrival rides
// the inbox and cannot land inside the current window — the wire latency
// already paid by transmit is exactly the lookahead bound.
func (n *NIC) scheduleArrival(m *Message, arrive VTime) {
	n.eng.AtRankMsg(m.Dst, arrive, n.fab.NICs[m.Dst], opArrive, m)
}

// HandleMsg runs one typed event step on this NIC.
func (n *NIC) HandleMsg(op uint8, m *Message) {
	switch op {
	case opArrive:
		// rx-link occupancy: an isolated arrival delivers immediately (its
		// serialization was already paid at the sender), but the receive
		// link drains at link rate, so concurrent senders to one NIC
		// (incast) queue behind each other.
		now := n.eng.Now()
		ready := now
		if n.rxFree > ready {
			ready = n.rxFree
		}
		n.rxFree = ready + m.rxSer
		if ready == now {
			n.receive(m)
			return
		}
		n.eng.AtRankMsg(n.Rank, ready, n, opRxReady, m)
	case opRxReady:
		n.receive(m)
	case opTableApply:
		// A push stamped with an older membership epoch than the table
		// trusts is dropped: it was in flight across a membership change
		// and could resurrect a route to a dead or re-homed locality.
		switch {
		case m.Epoch < n.Table.Epoch():
			n.Stats.StaleEpochDrops++
		case m.Ctl == CtlTableBatch:
			ForEachTableEntry(m.Payload, n.Table.Update)
		default:
			n.Table.Update(m.Block, m.Owner)
		}
		m.Release() // consumed by the NIC; never reaches the host
	case opDMADone:
		if n.DMADeliver == nil {
			panic(fmt.Sprintf("netsim: DMA delivery on rank %d without a DMA handler", n.Rank))
		}
		n.DMADeliver(m)
	}
}

// receive handles wire arrival: control consumption, ownership checks,
// in-network forwarding or NACKing, and final delivery.
func (n *NIC) receive(m *Message) {
	if lv := n.fab.Live; lv != nil && lv.Down(n.Rank) {
		// In-flight traffic arriving at a crashed locality hits a dead
		// link and vanishes.
		n.Stats.DownDrops++
		return
	}
	n.Stats.Received++
	wire := m.Wire
	if wire == 0 {
		wire = wireHeader
	}
	n.Stats.BytesRx += uint64(wire)

	switch m.Ctl {
	case CtlTableUpdate, CtlTableBatch:
		// Consumed entirely on the NIC, epoch-fenced at apply time. A batch
		// installs a whole migration burst in one deferred event after a
		// single NICUpdate charge: the table write port is the bottleneck
		// once, not per block.
		n.Stats.TableUpdatesRx++
		n.eng.AtRankMsg(n.Rank, n.eng.Now()+n.fab.Model.NICUpdate, n, opTableApply, m)
		return
	case CtlNack, CtlNackLoop:
		// NACKs terminate at the source host.
		n.deliverHost(m)
		return
	}

	if fi := n.fi; fi != nil && n.GVARouting {
		// Soft-error model: receiving traffic may scribble over one
		// translation-table entry. Only the LRU cache is vulnerable;
		// authoritative routes are assumed protected (ECC directory).
		if fi.MaybeLoseEntry(n.Table) {
			n.Stats.TableLost++
		}
	}

	if m.Scatter && m.RelSeq == 0 && n.GVARouting {
		// A coalesced batch with per-parcel GVA sub-headers: split it
		// here, below the host (the paper's point — the detour a batch
		// pays under software-managed AGAS is a host re-route; here the
		// NIC translates each record itself).
		n.scatterBatch(m)
		return
	}

	if m.Target.IsNull() {
		// Pure rank-addressed traffic (bootstrap, collectives wiring).
		n.deliverHost(m)
		return
	}

	resident := n.Resident != nil && n.Resident(m.Block)
	if !resident && m.Read && n.ResidentRead != nil && n.ResidentRead(m.Block) {
		// A fresh read replica lives here: serve the read in place, no
		// ownership and no host re-route involved.
		resident = true
	}
	if resident {
		n.deliver(m)
		return
	}

	// The block is not here. A GVA-routing NIC fixes that in the network;
	// a dumb NIC can only involve the host.
	if n.GVARouting {
		n.misroute(m)
		return
	}
	if m.DMA {
		// One-sided op faulting on a dumb NIC: the target host software
		// must get involved (it owns the tombstone state).
		n.deliverHost(m)
		return
	}
	// Two-sided traffic always reaches the host, which forwards in
	// software.
	n.deliverHost(m)
}

// misroute handles a GVA-routed arrival for a non-resident block.
func (n *NIC) misroute(m *Message) {
	model := n.fab.Model
	if target, ok := n.readRoutes[m.Block]; ok && m.Read && target != n.Rank {
		// We cannot serve this read but know a replica holder: forward
		// the read there in-network instead of chasing the owner.
		m.Hops++
		if m.Hops <= n.Policy.HopCap() {
			n.Stats.Forwards++
			if n.OnForward != nil {
				n.OnForward(m, target)
			}
			m.Dst = target
			n.transmit(m, model.NICForward)
			return
		}
		m.Hops--
	}
	owner, known := n.routes[m.Block]
	if !known {
		owner, known = n.Table.Peek(m.Block)
	}
	if !known {
		if n.Rank == m.Target.Home() {
			// Home has no knowledge: the block was never allocated or
			// was freed. Hand to the host, which reports the error.
			n.deliverHost(m)
			return
		}
		// Stale delivery somewhere with no knowledge: fall back to home.
		owner = m.Target.Home()
	}
	if owner == n.Rank {
		// Routing says we own it but it is not resident: the migration
		// protocol is mid-flight and the host is queueing for this
		// block. Let the host arbitrate.
		n.deliverHost(m)
		return
	}
	if lv := n.fab.Live; lv != nil && lv.Down(owner) {
		// Our best knowledge routes to a downed rank. Redirect through
		// the recovery overlay when the block was re-homed; otherwise, if
		// the rank is confirmed dead, terminate at this live host's
		// stale-delivery path (a clean, acked drop) rather than chasing a
		// corpse through the bounce machinery.
		if no, ok := lv.Rehome(m.Block); ok && !lv.Down(no) && no != n.Rank {
			owner = no
		} else if _, dead := lv.DeadHint(owner); dead {
			n.deliverHost(m)
			return
		}
	}
	if !n.Policy.ForwardInNetwork {
		n.nack(m, owner)
		return
	}
	m.Hops++
	if m.Hops > n.Policy.HopCap() {
		// Hop budget exhausted: the routing state is inconsistent (stale
		// tombstone chains, lost updates). Bounce to the sender with the
		// home as a fresh hint instead of panicking — a lossy fabric can
		// legitimately produce this.
		n.Stats.LoopNacks++
		n.nackWith(CtlNackLoop, m, m.Target.Home())
		return
	}
	n.Stats.Forwards++
	if n.OnForward != nil {
		n.OnForward(m, owner)
	}
	if n.Policy.PushUpdates && m.Src != n.Rank {
		upd := NewMessage()
		upd.Ctl = CtlTableUpdate
		upd.Src = n.Rank
		upd.Dst = m.Src
		upd.Block = m.Block
		upd.Owner = owner
		upd.Wire = wireHeader
		upd.Epoch = n.Table.Epoch()
		n.transmit(upd, model.NICForward)
	}
	// Forward in place: the arrived message is the forwarded one, and the
	// fabric stays its sole owner.
	m.Dst = owner
	n.transmit(m, model.NICForward)
}

// scatterBatch splits a GVA-sub-headered batch at the NIC. Records whose
// blocks are resident are delivered to the host as one batch (a single
// up-call); the rest are regrouped by the owner this NIC's tables
// resolve and forwarded in-network as fresh scatter batches, re-checked
// at each hop. Records that exhaust the hop budget fall back into the
// host-delivered group, where the host's re-route machinery (which the
// runtime counts) arbitrates.
func (n *NIC) scatterBatch(m *Message) {
	// Fast path: every record resident → the batch is already where it
	// belongs; hand it up unsplit, zero copies.
	allHere := true
	for r := NewScatterReader(m.Payload); ; {
		g, _, ok := r.Next()
		if !ok {
			break
		}
		if n.Resident == nil || !n.Resident(g.Block()) {
			allHere = false
			break
		}
	}
	if allHere {
		n.deliverHost(m)
		return
	}

	n.Stats.ScatterSplits++
	hopsLeft := m.Hops < n.Policy.HopCap()
	var local []byte
	groups := make(map[int][]byte)
	for r := NewScatterReader(m.Payload); ; {
		g, enc, ok := r.Next()
		if !ok {
			break
		}
		b := g.Block()
		if n.Resident != nil && n.Resident(b) {
			local = AppendScatterRecord(local, enc)
			continue
		}
		owner, known := n.routes[b]
		if !known {
			owner, known = n.Table.Peek(b)
		}
		if !known {
			owner = g.Home()
		}
		if owner == n.Rank || !hopsLeft {
			// Mid-migration here (the host queues), or the record's
			// forwarding chain is out of budget: the host sorts it out.
			local = AppendScatterRecord(local, enc)
			continue
		}
		groups[owner] = AppendScatterRecord(groups[owner], enc)
	}
	for owner, payload := range groups {
		n.Stats.ScatterForwards++
		fwd := NewMessage()
		fwd.Kind = m.Kind
		fwd.Src = m.Src
		fwd.Dst = owner
		fwd.Target = m.Target
		fwd.Block = m.Block
		fwd.Scatter = true
		fwd.Payload = payload
		fwd.Wire = wireHeader + len(payload)
		fwd.Hops = m.Hops + 1
		n.transmit(fwd, n.fab.Model.NICForward)
	}
	if len(local) > 0 {
		// Reuse the arrived envelope for the single host up-call.
		m.Payload = local
		m.Wire = wireHeader + len(local)
		n.deliverHost(m)
		return
	}
	// Every record moved on; the arrived envelope is spent.
	m.Release()
}

// nack bounces a message back to the source host with owner advice.
func (n *NIC) nack(m *Message, owner int) {
	n.Stats.Nacks++
	n.nackWith(CtlNack, m, owner)
}

// nackWith bounces m to its source inside a ctl NACK carrying owner as
// routing advice. Ownership of m moves to the NACK's Nacked pointer.
func (n *NIC) nackWith(ctl uint8, m *Message, owner int) {
	nk := NewMessage()
	nk.Ctl = ctl
	nk.Src = n.Rank
	nk.Dst = m.Src
	nk.Block = m.Block
	nk.Owner = owner
	nk.Wire = wireHeader
	nk.Nacked = m
	n.transmit(nk, n.fab.Model.NICForward)
}

// deliver completes a message at its owner: DMA at the NIC or handoff to
// the host.
func (n *NIC) deliver(m *Message) {
	if m.DMA {
		n.Stats.DMADelivered++
		n.eng.AtRankMsg(n.Rank, n.eng.Now()+n.fab.Model.CopyTime(m.Wire), n, opDMADone, m)
		return
	}
	n.deliverHost(m)
}

func (n *NIC) deliverHost(m *Message) {
	n.Stats.HostDelivered++
	if n.HostDeliver == nil {
		panic(fmt.Sprintf("netsim: host delivery on rank %d without a handler", n.Rank))
	}
	n.HostDeliver(m)
}
