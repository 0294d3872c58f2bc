package netsim

import "nmvgas/internal/gas"

// The NIC protocol core: the paper's mechanism — translate GVA→owner at
// the source, forward in-network at a stale destination, push the
// corrected entry back, NACK when the hop budget runs out, split
// coalesced batches against the NIC's own table — written once for both
// engines. Everything here is clock-free, lock-free and (off the scatter
// path) allocation-free: decision functions read a message and a view of
// translation state and return a Verdict; a driver (the simulated NIC in
// nic.go, the goroutine transport in package runtime) supplies time,
// exclusion and delivery, and bumps the counter the verdict names.

// DefaultMaxHops bounds in-network forwarding chains. A message exceeding
// the budget is NACKed back to its sender with the home as owner hint
// instead of chasing a broken route forever.
const DefaultMaxHops = 16

// Policy selects how a GVA-routing NIC reacts to traffic for blocks it
// does not own. The zero value is the paper's design (forward in the
// network, push corrected entries back to the source); the fields switch
// a piece of it off for the ablation benchmarks.
type Policy struct {
	// NackToHost makes the NIC bounce misdelivered traffic to the source
	// host with owner advice (a software round trip and a resend)
	// instead of forwarding it straight to the owner at NIC cost.
	NackToHost bool
	// NoPushUpdates stops a forwarding NIC from pushing the correct owner
	// to the source NIC's table, so later traffic keeps taking the detour.
	NoPushUpdates bool
}

// NICStats are cumulative per-NIC counters, the same set on both engines.
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

// Counter names one NICStats field. A Verdict carries the one it bumps,
// and the driver does the bumping through Slot — a plain increment on
// the single-threaded DES NIC, an atomic add on the goroutine transport —
// so the simulator never pays for the other engine's concurrency.
type Counter uint8

const (
	CntNone Counter = iota
	CntSent
	CntReceived
	CntBytesTx
	CntBytesRx
	CntForwards
	CntNacks
	CntTableUpdatesRx
	CntDMADelivered
	CntHostDelivered
	CntScatterSplits
	CntScatterForwards
	CntDropped
	CntDuplicated
	CntDelayed
	CntTableLost
	CntLoopNacks
	CntDownDrops
	CntDeadNacks
	CntStaleEpochDrops
	NumCounters
)

// Slot returns the field c names (nil for CntNone).
func (s *NICStats) Slot(c Counter) *uint64 {
	switch c {
	case CntSent:
		return &s.Sent
	case CntReceived:
		return &s.Received
	case CntBytesTx:
		return &s.BytesTx
	case CntBytesRx:
		return &s.BytesRx
	case CntForwards:
		return &s.Forwards
	case CntNacks:
		return &s.Nacks
	case CntTableUpdatesRx:
		return &s.TableUpdatesRx
	case CntDMADelivered:
		return &s.DMADelivered
	case CntHostDelivered:
		return &s.HostDelivered
	case CntScatterSplits:
		return &s.ScatterSplits
	case CntScatterForwards:
		return &s.ScatterForwards
	case CntDropped:
		return &s.Dropped
	case CntDuplicated:
		return &s.Duplicated
	case CntDelayed:
		return &s.Delayed
	case CntTableLost:
		return &s.TableLost
	case CntLoopNacks:
		return &s.LoopNacks
	case CntDownDrops:
		return &s.DownDrops
	case CntDeadNacks:
		return &s.DeadNacks
	case CntStaleEpochDrops:
		return &s.StaleEpochDrops
	}
	return nil
}

// Add sums o into s (spelled out: world snapshots sum thousands of NICs).
func (s *NICStats) Add(o *NICStats) {
	s.Sent += o.Sent
	s.Received += o.Received
	s.BytesTx += o.BytesTx
	s.BytesRx += o.BytesRx
	s.Forwards += o.Forwards
	s.Nacks += o.Nacks
	s.TableUpdatesRx += o.TableUpdatesRx
	s.DMADelivered += o.DMADelivered
	s.HostDelivered += o.HostDelivered
	s.ScatterSplits += o.ScatterSplits
	s.ScatterForwards += o.ScatterForwards
	s.Dropped += o.Dropped
	s.Duplicated += o.Duplicated
	s.Delayed += o.Delayed
	s.TableLost += o.TableLost
	s.LoopNacks += o.LoopNacks
	s.DownDrops += o.DownDrops
	s.DeadNacks += o.DeadNacks
	s.StaleEpochDrops += o.StaleEpochDrops
}

// TransState is one NIC's translation state. The caller provides the
// exclusion: the DES NIC touches it only from its rank's event context,
// the goroutine transport keeps one per lock shard.
type TransState struct {
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
}

// NewTransState returns empty translation state whose table is bounded
// to tableCap entries (0 = unbounded).
func NewTransState(tableCap int) TransState {
	s := TransState{Table: NewTransTable(tableCap)}
	s.Reset()
	return s
}

// Reset wipes the evictable table, the authoritative routes and the read
// steering. Used when a dead locality rejoins the world: the reborn NIC
// starts empty and relearns its state through the catch-up sync and
// ordinary control traffic (the table's trusted epoch survives).
func (s *TransState) Reset() {
	s.Table.Reset()
	s.routes = make(map[gas.BlockID]int)
	s.readRoutes = make(map[gas.BlockID]int)
}

// InstallRoute records authoritative owner knowledge (home mirror entry
// or forwarding tombstone). The runtime calls this at migration commit.
func (s *TransState) InstallRoute(block gas.BlockID, owner int) { s.routes[block] = owner }

// InstallReadRoute steers this NIC's read traffic for block to the
// replica at target. The replication runtime calls it at install time.
func (s *TransState) InstallReadRoute(block gas.BlockID, target int) { s.readRoutes[block] = target }

// DropReadRoute removes block's read steering (unreplicate, free, or the
// local rank becoming the owner).
func (s *TransState) DropReadRoute(block gas.BlockID) { delete(s.readRoutes, block) }

// ClearResident removes everything claiming block lives elsewhere: once
// a block is resident (or freed) its NIC must not hold a route, read
// route or cached entry left over from when it bounced through here.
func (s *TransState) ClearResident(block gas.BlockID) {
	delete(s.routes, block)
	delete(s.readRoutes, block)
	s.Table.Invalidate(block)
}

// Route returns the authoritative knowledge for block, if any (never the
// evictable table).
func (s *TransState) Route(block gas.BlockID) (int, bool) {
	o, ok := s.routes[block]
	return o, ok
}

// ReadRoute returns block's read steering, if any.
func (s *TransState) ReadRoute(block gas.BlockID) (int, bool) {
	t, ok := s.readRoutes[block]
	return t, ok
}

// Forward returns the best knowledge a receiving NIC has of where block
// went: authoritative routes first, then the cached table, read without
// touching its recency or hit counters.
func (s *TransState) Forward(block gas.BlockID) (int, bool) {
	if o, ok := s.routes[block]; ok {
		return o, true
	}
	return s.Table.Peek(block)
}

// Resolve is source translation: it sets the destination of a ByGVA
// message from the read steering (reads of replicated blocks go to the
// nearby replica the protocol picked for this rank), else the table
// (counting the hit or miss), else the authoritative routes, else the
// home encoded in the address, whose NIC is authoritative.
func (s *TransState) Resolve(m *Message) {
	if target, ok := s.readRoutes[m.Block]; ok && m.Read {
		m.Dst = target
	} else if owner, ok := s.Table.Lookup(m.Block); ok {
		m.Dst = owner
	} else if owner, ok := s.routes[m.Block]; ok {
		m.Dst = owner
	} else {
		m.Dst = m.Target.Home()
	}
}

// Routes is the read-only view of translation state the receive-side
// decisions consult: *TransState itself on the DES NIC, a view that takes
// the covering shard's lock per call on the goroutine transport.
type Routes interface {
	ReadRoute(gas.BlockID) (int, bool)
	Forward(gas.BlockID) (int, bool)
}

// ApplyTable installs a table push (CtlTableUpdate, or a CtlTableBatch
// whose payload carries a whole migration burst) through update. A push
// stamped with an older membership epoch than the table trusts is
// reported stale and not applied: it was in flight across a membership
// change and could resurrect a route to a dead or re-homed locality.
func ApplyTable(m *Message, trusted uint64, update func(gas.BlockID, int)) (stale bool) {
	if m.Epoch < trusted {
		return true
	}
	if m.Ctl == CtlTableBatch {
		ForEachTableEntry(m.Payload, update)
	} else {
		update(m.Block, m.Owner)
	}
	return false
}

// Action is what a Verdict tells the driver to do with the message.
type Action uint8

const (
	// ActPass (Fence only): transmit. m.Dst may have been redirected to
	// the survivor a dead owner's block recovered onto.
	ActPass Action = iota
	// ActDrop: the message vanishes at a down link; do not release it (a
	// concurrent duplicate may still be in flight).
	ActDrop
	// ActNack: bounce to m.Src inside a Ctl control message carrying To
	// as owner advice (see NICCore.Control).
	ActNack
	// ActApplyTable: a table push, consumed on the NIC via ApplyTable
	// after the driver's table-write cost.
	ActApplyTable
	// ActDeliverHost: hand to the host runtime (two-sided delivery, NACKs,
	// faults and mid-migration arrivals the host arbitrates).
	ActDeliverHost
	// ActDeliverDMA: one-sided transfer against resident host memory at
	// NIC cost.
	ActDeliverDMA
	// ActScatter: a coalesced batch to split with SplitScatter.
	ActScatter
	// ActMisroute (Classify only): the block is not here and this NIC
	// routes by GVA; Misroute decides.
	ActMisroute
	// ActForward: rewrite m.Dst to To and retransmit in place at NIC
	// forwarding cost; with Push, first send m.Src's NIC the entry.
	ActForward
)

// Verdict is a decision function's result: the action and the counter
// it bumps.
type Verdict struct {
	Act   Action
	Count Counter
	Ctl   uint8 // ActNack: CtlNack or CtlNackLoop
	Push  bool  // ActForward: push (m.Block → To) to m.Src's table
	To    int   // ActForward: next hop; ActNack: owner hint
}

var (
	verdictDrop = Verdict{Act: ActDrop, Count: CntDownDrops}
	verdictHost = Verdict{Act: ActDeliverHost, Count: CntHostDelivered}
)

// NICCore is the per-rank configuration the decision functions read.
// With GVARouting on (the network-managed mode) the NIC resolves
// GVA-addressed traffic from its translation state, forwards in-network
// when a block has moved, and absorbs table pushes — all without host
// involvement. With it off it is a plain dumb NIC: hosts must resolve
// destinations in software.
type NICCore struct {
	Rank       int
	GVARouting bool
	Policy     Policy

	// Resident reports whether the host currently holds a block. Set by
	// the runtime before traffic flows.
	Resident func(gas.BlockID) bool
	// ResidentRead reports whether the host holds a fresh read replica
	// of a block it does not own, letting the NIC DMA-serve reads that
	// read routes steered here without any host detour. Nil when the
	// runtime has no replication support.
	ResidentRead func(gas.BlockID) bool
}

func (c *NICCore) resident(b gas.BlockID) bool { return c.Resident != nil && c.Resident(b) }

// Fence is the transmit-side liveness check, run before a message
// leaves rank c.Rank for m.Dst. lv is nil while every locality is up.
func (c *NICCore) Fence(lv Liveness, m *Message) Verdict {
	if lv == nil {
		return Verdict{}
	}
	if lv.Down(c.Rank) {
		// Outbound fence: a crashed locality's NIC transmits nothing.
		return verdictDrop
	}
	if m.Dst == c.Rank || !lv.Down(m.Dst) {
		return Verdict{}
	}
	if owner, ok := lv.Rehome(m.Block); ok && !lv.Down(owner) && m.Ctl == CtlNone {
		// The block already recovered onto a survivor (promoted replica
		// or re-homed entry): redirect in flight instead of bouncing to
		// the sender.
		m.Dst = owner
		return Verdict{}
	}
	if hint, dead := lv.DeadHint(m.Dst); dead && m.Ctl == CtlNone && !m.Target.IsNull() {
		// The destination has been declared dead by membership: NACK
		// back to the sender with a hint instead of delivering to a
		// corpse. Prefer the live home as the hint: its directory
		// re-resolves authoritatively, where the surrogate can only
		// terminate traffic for genuinely lost blocks.
		if h := m.Target.Home(); h != m.Dst && !lv.Down(h) {
			hint = h
		}
		return Verdict{Act: ActNack, Count: CntDeadNacks, Ctl: CtlNackLoop, To: hint}
	}
	// Down but not yet declared (or rank-addressed control traffic with
	// nowhere to bounce): the message silently vanishes, and that silence
	// is exactly what raises suspicion upstream.
	return verdictDrop
}

// Classify sorts a wire arrival: control consumption, residency checks
// and final delivery. It consults no translation state; ActScatter and
// ActMisroute hand over to the functions that do.
func (c *NICCore) Classify(lv Liveness, m *Message) Verdict {
	if lv != nil && lv.Down(c.Rank) {
		// In-flight traffic arriving at a crashed locality hits a dead
		// link and vanishes.
		return verdictDrop
	}
	switch m.Ctl {
	case CtlTableUpdate, CtlTableBatch:
		return Verdict{Act: ActApplyTable, Count: CntTableUpdatesRx}
	case CtlNack, CtlNackLoop:
		// NACKs terminate at the source host.
		return verdictHost
	}
	if m.Scatter && m.RelSeq == 0 && c.GVARouting {
		// A coalesced batch with per-parcel GVA sub-headers: split it
		// here, below the host (the paper's point — the detour a batch
		// pays under software-managed AGAS is a host re-route; here the
		// NIC translates each record itself).
		return Verdict{Act: ActScatter}
	}
	if m.Target.IsNull() {
		// Pure rank-addressed traffic (bootstrap, collectives wiring).
		return verdictHost
	}
	if c.resident(m.Block) || m.Read && c.ResidentRead != nil && c.ResidentRead(m.Block) {
		// The block — or, for a read, a fresh replica of it — lives here:
		// no ownership question and no host re-route involved.
		if m.DMA {
			return Verdict{Act: ActDeliverDMA, Count: CntDMADelivered}
		}
		return verdictHost
	}
	if c.GVARouting {
		return Verdict{Act: ActMisroute}
	}
	// A dumb NIC can only involve the host: it forwards two-sided traffic
	// in software and owns the tombstone state a faulting one-sided op
	// needs.
	return verdictHost
}

// Misroute decides a GVA-routed arrival for a block that is not here. It
// charges the hop it takes to m.Hops.
func (c *NICCore) Misroute(rt Routes, lv Liveness, m *Message) Verdict {
	if m.Read && m.Hops < DefaultMaxHops {
		if target, ok := rt.ReadRoute(m.Block); ok && target != c.Rank {
			// We cannot serve this read but know a replica holder:
			// forward the read there in-network instead of chasing the
			// owner.
			m.Hops++
			return Verdict{Act: ActForward, Count: CntForwards, To: target}
		}
	}
	home := m.Target.Home()
	owner, known := rt.Forward(m.Block)
	if !known {
		if c.Rank == home {
			// Home has no knowledge: the block was never allocated or
			// was freed. Hand to the host, which reports the error.
			return verdictHost
		}
		// Stale delivery somewhere with no knowledge: fall back to home.
		owner = home
	}
	if owner == c.Rank {
		// Routing says we own it but it is not resident: the migration
		// protocol is mid-flight and the host is queueing for this
		// block. Let the host arbitrate.
		return verdictHost
	}
	if lv != nil && lv.Down(owner) {
		// Our best knowledge routes to a downed rank. Redirect through
		// the recovery overlay when the block was re-homed; otherwise, if
		// the rank is confirmed dead, terminate at this live host's
		// stale-delivery path (a clean, acked drop) rather than chasing a
		// corpse through the bounce machinery.
		if no, ok := lv.Rehome(m.Block); ok && !lv.Down(no) && no != c.Rank {
			owner = no
		} else if _, dead := lv.DeadHint(owner); dead {
			return verdictHost
		}
	}
	if c.Policy.NackToHost {
		return Verdict{Act: ActNack, Count: CntNacks, Ctl: CtlNack, To: owner}
	}
	m.Hops++
	if m.Hops > DefaultMaxHops {
		// Hop budget exhausted: the routing state is inconsistent (stale
		// tombstone chains, lost updates). Bounce to the sender with the
		// home as a fresh hint instead of panicking — a lossy fabric can
		// legitimately produce this.
		return Verdict{Act: ActNack, Count: CntLoopNacks, Ctl: CtlNackLoop, To: home}
	}
	return Verdict{Act: ActForward, Count: CntForwards, To: owner,
		Push: !c.Policy.NoPushUpdates && m.Src != c.Rank}
}

// Control builds the fabric-internal message a verdict calls for, from
// this NIC to m's source: a NACK (CtlNack or CtlNackLoop) that carries
// owner as routing advice and takes ownership of m through Nacked, or a
// CtlTableUpdate pushing (m.Block → owner) stamped with the membership
// epoch the sending table trusts, which leaves m alone.
func (c *NICCore) Control(ctl uint8, m *Message, owner int, epoch uint64) *Message {
	k := NewMessage()
	k.Ctl = ctl
	k.Src = c.Rank
	k.Dst = m.Src
	k.Block = m.Block
	k.Owner = owner
	k.Wire = wireHeader
	if ctl == CtlTableUpdate {
		k.Epoch = epoch
	} else {
		k.Nacked = m
	}
	return k
}

// SplitScatter splits a GVA-sub-headered batch at the NIC. Records whose
// blocks are resident stay in m for the host (a single up-call); the
// rest are regrouped by the owner rt resolves and returned as fresh
// scatter batches to forward in-network with Hops+1, re-checked at each
// hop. Records that route back here (mid-migration: the host queues) or
// that exhausted the hop budget stay with the host group, where the
// host's re-route machinery (which the runtime counts) arbitrates.
//
// split is false when every record was resident: m is untouched and goes
// up whole, zero copies. Otherwise host reports whether m — now carrying
// only the host group — still has anything to deliver; if not it is
// spent and the caller releases it.
func (c *NICCore) SplitScatter(rt Routes, m *Message) (fwd []*Message, host, split bool) {
	for r := NewScatterReader(m.Payload); ; {
		g, _, ok := r.Next()
		if !ok {
			return nil, true, false
		}
		if !c.resident(g.Block()) {
			break
		}
	}
	hopsLeft := m.Hops < DefaultMaxHops
	var local []byte
	for r := NewScatterReader(m.Payload); ; {
		g, enc, ok := r.Next()
		if !ok {
			break
		}
		owner := c.Rank
		if b := g.Block(); hopsLeft && !c.resident(b) {
			var known bool
			if owner, known = rt.Forward(b); !known {
				owner = g.Home()
			}
		}
		if owner == c.Rank {
			local = AppendScatterRecord(local, enc)
			continue
		}
		var f *Message
		for _, x := range fwd {
			if x.Dst == owner {
				f = x
				break
			}
		}
		if f == nil {
			f = NewMessage()
			f.Kind = m.Kind
			f.Src = m.Src
			f.Dst = owner
			f.Target = m.Target
			f.Block = m.Block
			f.Scatter = true
			f.Hops = m.Hops + 1
			fwd = append(fwd, f)
		}
		f.Payload = AppendScatterRecord(f.Payload, enc)
	}
	for _, f := range fwd {
		f.Wire = wireHeader + len(f.Payload)
	}
	m.Payload = local
	m.Wire = wireHeader + len(local)
	return fwd, len(local) > 0, true
}
