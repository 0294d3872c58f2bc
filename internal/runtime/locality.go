package runtime

import (
	"nmvgas/internal/agas"
	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// Runtime-level message kinds carried in netsim.Message.Kind.
const (
	kParcel uint8 = iota + 1
	kPutReq
	kPutAck
	kGetReq
	kGetRep
	// kHostNack is the software-managed repair path: the host at a stale
	// destination bounces a one-sided op back with owner advice.
	kHostNack
	// kOwnerUpd is the software-managed correction pushed to a source
	// whose parcel was host-forwarded.
	kOwnerUpd
	// kBatch is a coalesced bundle of parcels addressed to a locality.
	kBatch
	// kRelAck is a reliable-delivery acknowledgement (see reliable.go).
	kRelAck
	// kPutVec / kGetVec are vectored one-sided ops: one request carries
	// many fragments of one block (see rma.go) and costs one ack/reply.
	kPutVec
	kGetVec
	// Coherence protocol for live read replicas (see replicate.go). All
	// four are rank-addressed (null Target, Block set) except kReplFill,
	// which chases the master through ordinary ownership routing.
	//
	// kReplInval marks a holder's replica stale after a master write
	// (write-invalidate policy).
	kReplInval
	// kReplUpdate pushes the master's post-write block snapshot to a
	// holder (write-update policy).
	kReplUpdate
	// kReplFill asks the master for a fresh snapshot of a stale replica.
	kReplFill
	// kReplFillRep answers a kReplFill with the snapshot.
	kReplFillRep
	// kMemberPing / kMemberPong are the failure-suspicion probe and its
	// answer: rank-addressed control traffic outside the reliability
	// layer (their silence is the death signal; retransmitting them
	// would blur it).
	kMemberPing
	kMemberPong
)

// LocStats are per-locality runtime counters (distinct from the fabric's
// NIC counters), plain integers written by the rank's one writer, its
// token holder or DES event; World.RankStats and World.Stats read them
// by claiming the rank.
type LocStats struct {
	ParcelsSent  int64
	ParcelsRun   int64
	LocalRuns    int64 // parcels short-circuited without the network
	HostForwards int64 // software-managed host forwarding
	HostNacks    int64 // one-sided faults repaired in software
	NICNacks     int64 // NACKs received from the fabric (ablation)
	Queued       int64 // messages parked behind a moving block
	SWLookups    int64
	PutOps       int64
	GetOps       int64
	PutBytes     int64
	GetBytes     int64
	Migrations   int64 // completed with this locality as old owner
	LoopNacks    int64 // hop-budget NACKs processed as original sender

	// BatchReroutes counts batched parcels that arrived at a host which no
	// longer owned their block and had to be re-routed in software. Under
	// in-NIC batch scatter this is the exceptional path (hop-cap
	// exhaustion, a residency race); the software-managed baseline pays it
	// for every record behind a migration.
	BatchReroutes int64

	// Coherent-replication counters (see replicate.go). ReplicaReads are
	// reads served from a local replica copy; ReplicaStaleReads found the
	// copy stale and chased the master instead; ReplicaInvals /
	// ReplicaUpdates / ReplicaFills count coherence messages applied at
	// this locality as a holder.
	ReplicaReads      int64
	ReplicaStaleReads int64
	ReplicaInvals     int64
	ReplicaUpdates    int64
	ReplicaFills      int64
}

type moveState struct {
	dst    int
	queued []*netsim.Message
	// install is the block coming back: a migrate.data that reached this
	// rank while it was still the pinned old owner (see migrateData).
	install *parcel.Parcel
}

// opState is stored by value in the op table: a put's completion is the
// overwhelmingly common case, and keeping the state inline avoids one
// heap allocation per one-sided op.
type opState struct {
	done  func(data []byte) // get completion (may retain data)
	pdone func()            // put completion
	wait  *waiter           // a blocked caller's completion (Proc.await)
}

// Locality is one simulated compute node: a block store, the mode's
// address-translation state, an executor standing in for its host CPU,
// and the protocol handlers.
type Locality struct {
	w    *World
	rank int

	store *gas.Store
	exec  Executor
	// free is the Recycler of the context that runs this locality (its
	// engine face on DES, its mailbox on the goroutine engine): every
	// message and wire buffer its code takes or releases.
	free *netsim.Recycler

	// space is the mode's address-translation strategy (see space.go);
	// all per-mode protocol behaviour lives behind it.
	space AddressSpace

	// moving (the blocks pinned here by an in-flight migration), the op
	// table, replicas (the holder-side coherence state, one entry per
	// replica block resident here, nil until the first install; see
	// replicate.go) and heat (this rank's access-heat tracker, nil unless
	// Config.Heat.Enabled; see heat.go) have one writer, the rank's token
	// holder or DES event, and take no lock: code outside the rank claims
	// or posts to it (World.claim, Locality.post, World.post).
	moving   map[gas.BlockID]*moveState
	ops      opTable
	replicas map[gas.BlockID]*replHolder
	heat     *heatRank

	// coal batches outgoing parcels when coalescing is configured.
	coal *coalescer

	// rel is the reliable-delivery send state (nil when the world has no
	// faults configured; see reliable.go).
	rel *relLoc

	// proc is the driver handle World.Proc hands out (immutable, so one
	// per locality serves every caller).
	proc Proc

	// ctx is the one Ctx of every action here and dec the parcel runParcel
	// decodes into (ctx.P is &dec while an action runs, else nil).
	ctx Ctx
	dec parcel.Parcel

	// parcelSeq and opIDSeq have one writer, the token holder (or DES
	// event). opIDSeq feeds newOpID; the rank lives in the id's high
	// bits, so the per-locality counter yields world-unique ids.
	parcelSeq, opIDSeq uint64
	stats              LocStats
}

// newOpID mints a world-unique causal span id: rank+1 in the top 16 bits
// (Ranks is capped at 1<<12, and +1 keeps id 0 reserved for "no op"), a
// per-locality counter below. Parcels and one-sided operations share the
// namespace — an id names one logical operation across every hop,
// forward, NACK repair, and retransmit.
func (l *Locality) newOpID() uint64 {
	l.opIDSeq++
	return uint64(l.rank+1)<<48 | l.opIDSeq
}

func newLocality(w *World, rank int, bld spaceBuilder) *Locality {
	l := &Locality{
		w:      w,
		rank:   rank,
		store:  gas.NewStore(),
		moving: make(map[gas.BlockID]*moveState),
	}
	l.proc = Proc{l: l}
	l.ctx.l = l
	l.space = bld.newLocal(l)
	if w.cfg.Coalesce.enabled() {
		l.coal = newCoalescer(l, w.cfg.Coalesce)
	}
	if w.relw != nil {
		l.rel = &relLoc{}
	}
	if w.cfg.Heat.Enabled {
		l.heat = newHeatRank(w.cfg.Heat)
	}
	return l
}

// Rank returns this locality's rank.
func (l *Locality) Rank() int { return l.rank }

// World returns the owning world.
func (l *Locality) World() *World { return l.w }

// Store exposes the block store for driver-side verification. Like the
// Cache and the Directory it has one writer, the rank, and no lock: a
// driver reads them where the rank stands still (a DES world between
// events, a stopped world, a goroutine-engine world whose last writes a
// Wait has ordered before the read), never beside running traffic.
func (l *Locality) Store() *gas.Store { return l.store }

// Cache exposes the software translation cache (nil where the strategy
// has none); see Store.
func (l *Locality) Cache() *agas.SWCache { return l.space.Cache() }

// Directory exposes the home directory; see Store.
func (l *Locality) Directory() *agas.Directory { return l.space.Directory() }

// Moving reports whether block b is pinned by an in-flight migration at
// this locality (drivers use it to time mid-migration experiments). It
// claims the rank (World.claim), so code inside the rank asks moveOf.
func (l *Locality) Moving(b gas.BlockID) (moving bool) {
	l.w.claim(l.rank, func() { moving = l.moveOf(b) != nil })
	return moving
}

// moveOf is the in-rank check of b's migration pin: its state, or nil
// when b is not moving here. A migration is in flight at a given
// locality a tiny fraction of the time, so the per-message residency
// checks mostly stop at the length test.
func (l *Locality) moveOf(b gas.BlockID) *moveState {
	if len(l.moving) == 0 {
		return nil
	}
	return l.moving[b]
}

// queueIfMoving is the one park step: m waits behind an in-flight
// migration of b until the flush re-routes it to the new owner. Reports
// whether it parked.
func (l *Locality) queueIfMoving(b gas.BlockID, m *netsim.Message) bool {
	st := l.moveOf(b)
	if st == nil {
		return false
	}
	st.queued = append(st.queued, m)
	l.stats.Queued++
	l.note(TraceQueued, b, uint64(m.Kind), m.OpID)
	return true
}

// admit is the owner side's one admission of m, addressed to block b: it
// parks m behind a migration of b, or hands a stale delivery — b is not
// here, or only a replica is and replicaOK is false — to the address
// space (p is m's decoded parcel, nil for other kinds). It returns the
// block when m may be served here.
func (l *Locality) admit(m *netsim.Message, b gas.BlockID, p *parcel.Parcel, replicaOK bool) (*gas.Block, bool) {
	if l.queueIfMoving(b, m) {
		return nil, false
	}
	blk, ok := l.store.Get(b)
	if !ok || blk.Replica && !replicaOK {
		l.space.OnStaleDelivery(m, p)
		return nil, false
	}
	return blk, true
}

// residentForNIC is the residency oracle of the NIC and of the host's
// fast paths: a block is "resident" for routing purposes only when
// present as the *master* copy and not mid-migration — migrating blocks
// drain through the host's queueing path, and read-only replicas are
// invisible to ownership routing.
func (l *Locality) residentForNIC(b gas.BlockID) bool {
	if l.moveOf(b) != nil {
		return false
	}
	blk, ok := l.store.Get(b)
	return ok && !blk.Replica
}

// wireNIC gives this rank's NIC core, on either engine, its host hooks:
// the residency oracles and the trace of an in-network forward.
func (l *Locality) wireNIC(c *netsim.NICCore) {
	c.Resident, c.ResidentRead = l.residentForNIC, l.residentForRead
	c.OnForward = func(m *netsim.Message, owner int) {
		l.note(TraceNICForward, m.Block, uint64(int64(owner)), m.OpID)
	}
}

// ---------------------------------------------------------------------
// Send side

// SendParcel routes p from this locality. It must be called from this
// locality's execution context (an action body or a Proc task). Only user
// parcels ride pooled wire buffers (see wirebuf.go).
func (l *Locality) SendParcel(p *parcel.Parcel) {
	p.Src = l.rank
	l.parcelSeq++
	p.Seq = l.parcelSeq
	p.OpID = l.newOpID()
	l.stats.ParcelsSent++
	l.note(TraceSend, p.Target.Block(), uint64(p.Action), p.OpID)
	buf, pooled := l.wireBuf(p.Action >= firstUserAction && l.payloadPoolable(), p.WireSize())
	enc := parcel.AppendEncode(buf, p)
	m := l.free.Message()
	m.Kind = kParcel
	m.Src = l.rank
	m.Target = p.Target
	m.Payload = enc
	m.PayloadPooled = pooled
	m.Wire = len(enc)
	m.OpID = p.OpID
	m.MigCtl = p.Action >= aMigrateReq && p.Action <= aMigrateDone
	l.routeMsg(m)
}

// routeMsg performs source-side translation for m via the address-space
// strategy and either delivers locally or injects into the network. It
// is also the re-send path after corrections, NACKs, and migration
// flushes.
func (l *Locality) routeMsg(m *netsim.Message) {
	m.Hops = 0
	b := m.Target.Block()
	m.Block = b
	if m.Kind == kGetReq || m.Kind == kGetVec {
		// Reads of replicated blocks may be steered to a replica holder;
		// everything else strictly follows ownership.
		m.Read = true
	}

	// Local fast path: the data is here and stable.
	if l.residentForNIC(b) {
		l.deliverLocal(m)
		return
	}
	if m.Read && l.w.replCount.Load() != 0 {
		if fresh, holder := l.replicaFresh(b); holder {
			if fresh {
				// Replica fast path: a fresh local copy serves the read
				// without the network.
				l.deliverLocal(m)
				return
			}
			// Stale local copy: the read chases the master while the
			// refill is in flight.
			l.stats.ReplicaStaleReads++
		} else if t, ok := l.space.ReadRoute(b); ok && t != l.rank {
			// Host-routed replica read (sw/pgas): the cached route picks
			// the nearby holder. The NM space routes reads in the NIC and
			// returns false here.
			l.inject(m, t)
			return
		}
	}
	if l.queueIfMoving(b, m) {
		return
	}

	if l.coal != nil && m.Kind == kParcel && m.RelSeq == 0 {
		// Already-tracked parcels (NACK resends) must keep their message
		// identity — folding one into a batch would strand its
		// retransmission state.
		// The strategy's zero-cost owner guess picks the batching
		// destination; wrong guesses are re-routed at the batch target.
		if dst := l.space.OwnerHint(b, m.Target.Home()); dst != l.rank {
			// The coalescer copies the encoded bytes into the batch; the
			// envelope and a pooled buffer end here.
			l.coal.add(dst, m.Payload)
			l.releasePayload(m)
			l.free.Release(m)
			return
		}
	}

	l.inject(m, l.space.Translate(m.Target))
}

// inject charges host injection overhead and hands m to the network. The
// injection is scheduled at the host-busy horizon so that send-side
// software costs (translation, OSend) delay the wire departure — that
// serialization is exactly the overhead the paper's design removes.
func (l *Locality) inject(m *netsim.Message, dst int) {
	m.Dst = dst
	l.relTrack(m)
	l.exec.Charge(l.w.cfg.Model.OSend)
	l.exec.ExecMsg(0, opInject, m)
}

// nicInject sends from NIC context (DMA completions), enrolling the
// message in reliable delivery so a lost completion is retransmitted by
// the owner rather than regenerated by a deduplicated request.
func (l *Locality) nicInject(m *netsim.Message) {
	l.relTrack(m)
	l.w.net.Send(l.rank, m)
}

// deliverLocal executes m on this locality without touching the network:
// straight to the host handler, charged as a handler dispatch.
func (l *Locality) deliverLocal(m *netsim.Message) {
	l.stats.LocalRuns++
	l.exec.ExecMsg(l.w.cfg.Model.HandlerDispatch, opHostMsg, m)
}

// handleMsg runs one typed executor step of m (see Executor.ExecMsg).
func (l *Locality) handleMsg(op msgOp, m *netsim.Message) {
	switch op {
	case opHostMsg:
		l.onHostMsg(m)
	case opInject:
		l.w.net.Send(l.rank, m)
	case opRunParcel:
		l.runParcel(m, true)
	case opFlush:
		l.inject(m, m.Dst)
	}
}

// ---------------------------------------------------------------------
// Receive side (host)

// onHostMsg handles everything the NIC delivers up to the host, plus
// local deliveries. It runs on the locality executor.
func (l *Locality) onHostMsg(m *netsim.Message) {
	if m.Ctl == netsim.CtlNack || m.Ctl == netsim.CtlNackLoop {
		// The NACK envelope is consumed here; the nacked original's
		// ownership moves to the resend path (or the GC — a duplicated
		// NACK's clones share one original, so it is never released).
		l.onNICNack(m)
		l.free.Release(m)
		return
	}
	switch m.Kind {
	case kParcel:
		l.execParcel(m)
	case kPutReq, kGetReq, kPutVec, kGetVec:
		l.hostRMA(m)
	case kPutAck, kGetRep, kHostNack, kOwnerUpd, kBatch, kReplInval, kReplUpdate, kReplFillRep:
		// Rank-addressed kinds: one exactly-once gate, and the message
		// ends here. completeOp may retain a kGetRep's payload slice
		// (unless it is pooled, in which case the completion copies out by
		// contract); Release only drops the envelope's pointer, never the
		// backing array.
		if l.relAccept(m) {
			l.onRankMsg(m)
		}
		l.releasePayload(m)
		l.free.Release(m)
	case kRelAck:
		l.relOnAck(m)
		l.free.Release(m)
	case kReplFill:
		l.onReplFill(m)
	case kMemberPing:
		pong := l.free.Message()
		*pong = netsim.Message{Kind: kMemberPong, Src: l.rank, Dst: m.Src, Wire: 32}
		l.w.net.Send(l.rank, pong)
		l.free.Release(m)
	case kMemberPong:
		l.w.mem.pongFrom(m.Src)
		l.free.Release(m)
	default:
		l.w.fail("rank %d: unknown message kind %d", l.rank, m.Kind)
	}
}

// onRankMsg handles an accepted rank-addressed message; onHostMsg
// releases it.
func (l *Locality) onRankMsg(m *netsim.Message) {
	switch m.Kind {
	case kPutAck:
		l.completeOp(m.OpID, nil)
	case kGetRep:
		l.completeOp(m.OpID, m.Payload)
	case kHostNack:
		l.onHostNack(m)
	case kOwnerUpd:
		l.space.LearnOwner(m.Block, m.Owner)
	case kBatch:
		l.onBatch(m)
	case kReplInval:
		l.onReplInval(m)
	case kReplUpdate:
		l.onReplUpdate(m)
	case kReplFillRep:
		l.onReplFillRep(m)
	}
}

// execParcel dispatches a parcel message at its (supposed) owner. A
// user action's body is its own executor step, and the message is all
// that step needs: the parcel is decoded where it runs. Control actions
// run here.
func (l *Locality) execParcel(m *netsim.Message) {
	action, _, _, err := parcel.Peek(m.Payload)
	if err != nil {
		l.w.fail("rank %d: undecodable parcel: %v", l.rank, err)
	}
	if action >= firstUserAction {
		l.exec.ExecMsg(0, opRunParcel, m)
		return
	}
	l.runParcel(m, false)
}

// runParcel is the one parcel admission: admit (park behind a migration,
// or hand a stale delivery to the address space), apply the exactly-once
// gate, run.
// The checks run at *execution* time — a parcel may sit in an executor
// queue while a migration starts. A locality runs one action at a time
// on both engines (one event stream per rank on DES, one token holder on
// the goroutine engine), so a migration snapshot never races a running
// handler and admission takes no lock. The same invariant lets every
// action run on the locality's one Ctx and decoded parcel (l.ctx,
// l.dec); entering here while an action runs is a bug.
// user marks a user action: a duplicate is dropped before it can park or
// be re-routed, and the run feeds the heat sample. Control actions never
// touch user block data; they re-check state themselves where needed.
func (l *Locality) runParcel(m *netsim.Message, user bool) {
	c, p := &l.ctx, &l.dec
	if c.P != nil {
		l.w.fail("rank %d: parcel admitted inside running action %v", l.rank, c.P)
	}
	if err := parcel.DecodeInto(p, m.Payload); err != nil {
		l.w.fail("rank %d: undecodable parcel: %v", l.rank, err)
	}
	act, err := l.w.reg.Lookup(p.Action)
	if err != nil {
		l.w.fail("rank %d: %v", l.rank, err)
	}
	b := p.Target.Block()
	if user && l.relDupPeek(m) {
		l.free.Release(m)
		return
	}
	// Parcels execute exactly once, at the master: a replica will not do.
	if _, ok := l.admit(m, b, p, false); !ok {
		return
	}
	if !l.relAccept(m) {
		// A duplicated parcel must not run twice: LCO gates would
		// double-count and the migration protocol would replay.
		l.free.Release(m)
		return
	}
	l.stats.ParcelsRun++
	l.note(TraceExec, b, uint64(p.Action), p.OpID)
	c.P = p
	act(c)
	c.P = nil // the parcel and its payload end with the action (see Ctx)
	l.releasePayload(m)
	l.free.Release(m)
}

// routeToExplicit re-sends m to a known destination, charging injection.
func (l *Locality) routeToExplicit(m *netsim.Message, dst int) {
	m.Hops = 0
	l.inject(m, dst)
}

// onNICNack handles the fabric's NACKs at the original sender: CtlNack
// (the no-in-network-forwarding ablation) repairs the NIC table and
// resends; CtlNackLoop (hop budget exhausted) additionally counts
// bounces and abandons the message once the routing state has proven
// itself broken, instead of chasing it forever.
func (l *Locality) onNICNack(m *netsim.Message) {
	orig := m.Nacked
	if orig == nil {
		l.w.fail("rank %d: NACK without original message", l.rank)
	}
	owner := uint64(int64(m.Owner))
	if m.Ctl == netsim.CtlNackLoop {
		l.stats.LoopNacks++
		orig.Bounces++
		if orig.Bounces > relBounceCap {
			l.note(noteAbandon, m.Block, owner, orig.OpID)
			l.relAbandon(orig)
			return
		}
		l.note(TraceLoopNack, m.Block, owner, orig.OpID)
	} else {
		l.stats.NICNacks++
		l.note(TraceNICNack, m.Block, owner, orig.OpID)
	}
	if m.Owner >= 0 {
		l.exec.Charge(l.w.cfg.Model.NICUpdate)
		l.w.net.State(l.rank, func(st *netsim.TransState) { st.Table.Update(m.Block, m.Owner) })
	}
	// Resend a copy: a duplicated NACK can deliver twice, and both
	// resends must not alias one Message crossing the fabric twice. The
	// copy is recycled; orig is never released, because duplicated NACK
	// clones share it.
	cp := l.free.Message()
	*cp = *orig
	l.routeMsg(cp)
}

// onHostNack handles the software-managed repair of a bounced one-sided
// operation.
func (l *Locality) onHostNack(m *netsim.Message) {
	l.stats.HostNacks++
	if m.Nacked == nil {
		l.w.fail("rank %d: host NACK without original message", l.rank)
	}
	l.note(TraceHostNack, m.Block, uint64(int64(m.Owner)), m.Nacked.OpID)
	if m.Owner >= 0 {
		l.space.LearnOwner(m.Block, m.Owner)
	}
	l.routeMsg(m.Nacked)
}
