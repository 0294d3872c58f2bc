package netsim

import "nmvgas/internal/gas"

// The NIC protocol core: the paper's mechanism — translate GVA→owner at
// the source, forward in-network at a stale destination, push the
// corrected entry back, NACK when the hop budget runs out, split
// coalesced batches against the NIC's own table. Decision functions are
// clock-free, lock-free and (off the scatter path) allocation-free: they
// read a message and a view of translation state and return a Verdict,
// which the driver (driver.go) acts out on a Port.

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
	// BroadcastUpdates has the home push every migration commit to every
	// NIC's table: the first send after a move goes direct, for O(ranks)
	// control messages per burst. The runtime's agas-nm space reads it.
	BroadcastUpdates bool
}

// Counter names one per-NIC counter. A Verdict carries the one it bumps
// and the driver bumps it on NICCore.Stats, a plain array its one writer
// owns. Injected faults are not NIC counters: the FaultInjector that
// decides one counts it (FaultStats).
type Counter uint8

const (
	CntNone Counter = iota
	// CntSent, CntReceived: messages that passed the send gate and that
	// came off the link; CntBytesTx, CntBytesRx: their wire bytes.
	CntSent
	CntReceived
	CntBytesTx
	CntBytesRx
	// CntForwards: in-network forwards of misdelivered traffic.
	CntForwards
	// CntNacks: misdelivered traffic bounced to the source host
	// (Policy.NackToHost).
	CntNacks
	// CntTableUpdatesRx: table pushes (single or batch) absorbed.
	CntTableUpdatesRx
	// CntDMADelivered, CntHostDelivered: arrivals served by one-sided
	// DMA and arrivals handed to the host.
	CntDMADelivered
	CntHostDelivered
	// CntScatterSplits: batches split on arrival because at least one
	// record's block was not resident; CntScatterForwards: the per-owner
	// sub-batches forwarded in-network as a result.
	CntScatterSplits
	CntScatterForwards
	// CntLoopNacks: arrivals that exhausted the hop budget, NACKed back.
	CntLoopNacks
	// CntDownDrops: messages silently swallowed because a link was down
	// (crashed locality, not yet declared dead — the silence is what
	// drives suspicion).
	CntDownDrops
	// CntDeadNacks: sends to a membership-declared-dead rank bounced back
	// with a home hint instead of delivered to the corpse.
	CntDeadNacks
	// CntStaleEpochDrops: control pushes ignored because they carried an
	// older membership epoch than the receiving table trusts.
	CntStaleEpochDrops
	NumCounters
)

// NICStats are cumulative per-NIC counters indexed by Counter (the
// CntNone slot stays zero).
type NICStats [NumCounters]uint64

// TransState is one NIC's translation state. It has one writer and takes
// no lock: the DES NIC touches it only from its rank's event context, the
// goroutine transport only from its rank's token holder.
// All of it lives in Table's slab, one slot per block, so each method
// probes one index once. Beside the cached entry a slot holds the
// block's route (authoritative: the home mirror of the directory and
// forwarding tombstones, never evicted) and its read route (steering
// reads of a replicated block to a nearby replica holder; writes and
// parcels follow ownership).
type TransState struct {
	// Table is the bounded NIC-resident translation cache consulted at
	// injection time. Entries installed by forwarding/commit control
	// traffic land here too.
	Table *TransTable
}

// NewTransState returns empty translation state whose table is bounded
// to tableCap entries (0 = unbounded).
func NewTransState(tableCap int) TransState { return TransState{Table: NewTransTable(tableCap)} }

// Reset wipes the evictable table, the authoritative routes and the read
// steering. Used when a dead locality rejoins the world: the reborn NIC
// starts empty and relearns its state through the catch-up sync and
// ordinary control traffic (the table's trusted epoch survives).
func (s *TransState) Reset() { s.Table.Reset() }

// InstallRoute records authoritative owner knowledge (home mirror entry
// or forwarding tombstone). The runtime calls this at migration commit.
func (s *TransState) InstallRoute(block gas.BlockID, owner int) {
	s.Table.slotFor(block).route = int32(owner)
}

// InstallReadRoute steers this NIC's read traffic for block to the
// replica at target. The replication runtime calls it at install time.
func (s *TransState) InstallReadRoute(block gas.BlockID, target int) {
	s.Table.slotFor(block).read = int32(target)
}

// DropReadRoute removes block's read steering (unreplicate, free, or the
// local rank becoming the owner).
func (s *TransState) DropReadRoute(block gas.BlockID) {
	t := s.Table
	if c, i := t.ix.find(block); i != 0 {
		t.ents[i].read = noRank
		t.release(c, i)
	}
}

// ClearResident removes everything claiming block lives elsewhere: once
// a block is resident (or freed) its NIC must not hold a route, read
// route or cached entry left over from when it bounced through here.
func (s *TransState) ClearResident(block gas.BlockID) {
	t := s.Table
	if c, i := t.ix.find(block); i != 0 {
		t.ents[i].route, t.ents[i].read = noRank, noRank
		if t.cached(i) {
			t.unlink(i)
			t.n--
		}
		t.release(c, i)
	}
}

// Trans returns s itself, so a port that embeds its TransState serves
// Port.Trans with it.
func (s *TransState) Trans() *TransState { return s }

// Route returns the authoritative knowledge for block, if any (never the
// evictable table).
func (s *TransState) Route(block gas.BlockID) (int, bool) {
	_, i := s.Table.ix.find(block)
	return known(s.Table.ents[i].route)
}

// ReadRoute returns block's read steering, if any.
func (s *TransState) ReadRoute(block gas.BlockID) (int, bool) {
	_, i := s.Table.ix.find(block)
	return known(s.Table.ents[i].read)
}

// known reads a slot's route or read route as a map would.
func known(r int32) (int, bool) {
	if r == noRank {
		return 0, false
	}
	return int(r), true
}

// Forward returns the best knowledge a receiving NIC has of where block
// went: authoritative routes first, then the cached table, read without
// touching its recency or hit counters.
func (s *TransState) Forward(block gas.BlockID) (int, bool) {
	t := s.Table
	_, i := t.ix.find(block)
	if o, ok := known(t.ents[i].route); ok {
		return o, true
	}
	return t.peekAt(i)
}

// Resolve is source translation: it sets the destination of a ByGVA
// message from the read steering (reads of replicated blocks go to the
// nearby replica the protocol picked for this rank), else the table
// (counting the hit or miss), else the authoritative routes, else the
// home encoded in the address, whose NIC is authoritative.
func (s *TransState) Resolve(m *Message) {
	t := s.Table
	c, i := t.ix.find(m.Block)
	e := &t.ents[i]
	if e.read != noRank && m.Read {
		m.Dst = int(e.read)
	} else if owner, ok := t.lookupAt(c, i); ok {
		m.Dst = owner
	} else if e.route != noRank {
		m.Dst = int(e.route)
	} else {
		m.Dst = m.Target.Home()
	}
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
	// ActApplyTable: a table push, consumed on the NIC (ApplyTable) after
	// the port's table-write cost.
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

// NICCore is the per-rank configuration the decision functions read, and
// the NIC's counters the driver writes. With GVARouting on (the
// network-managed mode) the NIC resolves GVA-addressed traffic from its
// translation state, forwards in-network when a block has moved, and
// absorbs table pushes — all without host involvement. With it off it is
// a plain dumb NIC: hosts must resolve destinations in software.
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
	// OnForward, when set, observes an in-network redirect (m about to
	// be rewritten to owner) at no cost — a tracing hook, not a
	// participant.
	OnForward func(m *Message, owner int)

	// Stats is written only by the driver, on the NIC's one writer; a
	// reader outside it claims the rank first.
	Stats NICStats

	// Free is the Recycler of the context that runs this NIC (its rank's
	// engine face, its rank's token holder): the driver's NACKs, table
	// pushes, scatter shares and fault clones come from it, and what the
	// NIC consumes goes back to it.
	Free *Recycler
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
func (c *NICCore) Misroute(rt *TransState, lv Liveness, m *Message) Verdict {
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
	k := c.Free.Message()
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
func (c *NICCore) SplitScatter(rt *TransState, m *Message) (fwd []*Message, host, split bool) {
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
			f = c.Free.Message()
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
