package runtime

import (
	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// Migration status codes delivered to the initiator's continuation as an
// 8-byte little-endian record.
const (
	// MigrateOK reports a completed migration (or a no-op move to the
	// current owner).
	MigrateOK int64 = iota
	// MigratePinned reports a refusal: LCOs and infrastructure blocks do
	// not move.
	MigratePinned
	// MigrateBadTarget reports a destination rank outside the world.
	MigrateBadTarget
)

// The migration protocol, from the initiator's point of view:
//
//	initiator --aMigrateReq--> owner        (routed like any parcel)
//	owner: pin block (queue arrivals), snapshot
//	owner --aMigrateData--> destination     (block bytes on the wire)
//	destination: install block
//	destination --aMigrateCommit--> home    (directory flip)
//	home: directory.Set; NM: NIC route install (+ policy broadcast)
//	home --aMigrateDone--> old owner
//	old owner: drop block, leave tombstone (host or NIC), flush queue,
//	           fire the initiator's continuation
//
// The block's GVA never changes; only ownership state does. Traffic that
// races any phase either queues at the pinned owner or chases tombstones,
// so no message is ever lost or executed at a non-owner.

// migPayload is the control record threaded through the protocol chain.
type migPayload struct {
	g        gas.GVA // block base address (carries home)
	bsize    uint32
	to       int
	oldOwner int
	cAction  parcel.ActionID
	cTarget  gas.GVA
	// replicated carries the block's replica set when it has one: the
	// set is taken out of the old master's directory at pin time and
	// re-homed at the destination, so coherence ownership moves with the
	// block (holders only on aMigrateReq → aMigrateData).
	replicated bool
	holders    []int
	data       []byte // block contents, only on aMigrateData
}

func encodeMig(p migPayload) []byte {
	nh := uint32(0)
	if p.replicated {
		// 0 means "no replica set"; n+1 means a set with n holders, so an
		// empty-but-present set survives the round trip.
		nh = uint32(len(p.holders)) + 1
	}
	buf := make([]byte, 0, 36+4*len(p.holders)+len(p.data))
	buf = parcel.PutU64(buf, uint64(p.g))
	buf = parcel.PutU32(buf, p.bsize)
	buf = parcel.PutU32(buf, uint32(p.to))
	buf = parcel.PutU32(buf, uint32(p.oldOwner))
	buf = parcel.PutU32(buf, uint32(p.cAction))
	buf = parcel.PutU64(buf, uint64(p.cTarget))
	buf = parcel.PutU32(buf, nh)
	if p.replicated {
		for _, h := range p.holders {
			buf = parcel.PutU32(buf, uint32(h))
		}
	}
	return append(buf, p.data...)
}

func decodeMig(b []byte) migPayload {
	p := migPayload{
		g:        gas.GVA(parcel.U64(b, 0)),
		bsize:    parcel.U32(b, 8),
		to:       int(parcel.U32(b, 12)),
		oldOwner: int(parcel.U32(b, 16)),
		cAction:  parcel.ActionID(parcel.U32(b, 20)),
		cTarget:  gas.GVA(parcel.U64(b, 24)),
	}
	off := 36
	if nh := parcel.U32(b, 32); nh > 0 {
		p.replicated = true
		p.holders = make([]int, nh-1)
		for i := range p.holders {
			p.holders[i] = int(parcel.U32(b, off))
			off += 4
		}
	}
	p.data = b[off:]
	return p
}

// MigrateAsync moves the block addressed by g to rank to. When the
// migration commits, a parcel running contAction (usually ALCOSet) at
// cont fires with a status record. Must be called from this locality's
// execution context. Under PGAS the request fails immediately at the
// owner (the home) with MigratePinned semantics — PGAS blocks never move
// — reported through the same continuation.
func (l *Locality) MigrateAsync(g gas.GVA, to int, contAction parcel.ActionID, cont gas.GVA) {
	l.SendParcel(&parcel.Parcel{
		Action:  aMigrateReq,
		Target:  g.Base(),
		Payload: encodeMig(migPayload{g: g.Base(), to: to}),
		CAction: contAction,
		CTarget: cont,
	})
}

func (w *World) registerBuiltins() {
	// Order fixes the builtin IDs declared in registry.go.
	w.reg.Register("lco.set", func(c *Ctx) {
		blk, ok := c.l.store.Get(c.P.Target.Block())
		if !ok || blk.Kind != gas.KindLCO {
			c.l.w.fail("rank %d: lco.set on non-LCO target %v", c.l.rank, c.P.Target)
		}
		if err := blk.Ctl.(interface{ Set([]byte) error }).Set(c.P.Payload); err != nil {
			c.l.w.fail("rank %d: lco.set on %v: %v", c.l.rank, c.P.Target, err)
		}
	})
	w.reg.Register("nop", func(c *Ctx) { c.Continue(nil) })
	w.reg.Register("migrate.req", migrateReq)
	w.reg.Register("migrate.data", migrateData)
	w.reg.Register("migrate.commit", migrateCommit)
	w.reg.Register("migrate.done", migrateDone)
	w.reg.Register("alloc.blocks", allocBlocks)
	w.reg.Register("free.block", freeBlock)
}

// migrateReq runs at the block's current owner.
func migrateReq(c *Ctx) {
	l := c.l
	mp := decodeMig(c.P.Payload)
	b := mp.g.Block()

	status := func(s int64) { c.Continue(parcel.PutI64(nil, s)) }

	if mp.to < 0 || mp.to >= l.w.cfg.Ranks {
		status(MigrateBadTarget)
		return
	}
	blk, ok := l.store.Get(b)
	if !ok {
		// runParcel guarantees residency; reaching here is a protocol
		// bug.
		l.w.fail("rank %d: migrate.req for non-resident block %d", l.rank, b)
	}
	if blk.Kind != gas.KindData || blk.Pinned {
		status(MigratePinned)
		return
	}
	if !l.space.Caps().Migration {
		// Static address spaces cannot move blocks; refuse before pinning.
		status(MigratePinned)
		return
	}
	if mp.to == l.rank {
		status(MigrateOK)
		return
	}

	// Pin: from here until migrateDone, arrivals for b queue at this
	// host (the NIC residency oracle reports false, and under AGASNM the
	// route-to-self entry steers misrouted traffic to this host). The
	// block is quiescent: this locality runs one action at a time, and
	// this one is it.
	l.moving[b] = &moveState{dst: mp.to}
	l.note(TraceMigrateStart, b, uint64(mp.to), 0)
	l.space.BeginMigrate(b)

	// A replicated block's coherence ownership travels with it: take the
	// set out of this (old) master's directory and ship it alongside the
	// data so the destination can re-home it. The block is pinned, so no
	// write can fan out against the half-moved set.
	var replicated bool
	var holders []int
	if rs, ok := l.space.Directory().TakeReplicas(b); ok {
		replicated, holders = true, rs.Holders
	}

	snapshot := append([]byte(nil), blk.Data...)
	l.exec.Charge(l.w.cfg.Model.CopyTime(len(snapshot)))
	l.SendParcel(&parcel.Parcel{
		Action: aMigrateData,
		Target: l.w.LocalityGVA(mp.to),
		Payload: encodeMig(migPayload{
			g: mp.g, bsize: blk.BSize, to: mp.to, oldOwner: l.rank,
			cAction: c.P.CAction, cTarget: c.P.CTarget,
			replicated: replicated, holders: holders, data: snapshot,
		}),
	})
}

// migrateData runs at the destination locality.
// stallRetryDelay spaces the re-executions of a data install parked by
// InjectMigrationStall: long enough that a stalled run is not dominated
// by retry events, short enough that release is picked up within a
// fraction of a pulse period.
const stallRetryDelay = 5 * netsim.Microsecond

func migrateData(c *Ctx) {
	l := c.l
	if l.w.migStall.Load() {
		// Anomaly injection (see World.InjectMigrationStall): park the
		// install and retry later. The block stays pinned at its old
		// owner with arrivals queuing behind the pin — the real stall
		// pathology, produced through the real protocol path.
		// The retry runs on this locality's Ctx with its own parcel copy.
		retry := *c.P
		l.exec.After(stallRetryDelay, func() { c.P = &retry; migrateData(c); c.P = nil })
		return
	}
	mp := decodeMig(c.P.Payload)
	b := mp.g.Block()

	// The block may be coming back before it has left: a migrate.req reached
	// the new owner (through a stale NIC entry, or issued there) between its
	// install and this rank's migrate.done, which travels two hops via home
	// against this parcel's one. The old copy is then still pinned here, and
	// migrateDone installs the new one once it has dropped it.
	if st := l.moveOf(b); st != nil {
		retry := *c.P
		st.install = &retry
		return
	}

	if mp.replicated {
		// This destination may itself hold a replica; it is becoming the
		// master, so its copy leaves the holder set before the
		// authoritative block installs over it.
		kept := mp.holders[:0]
		for _, h := range mp.holders {
			if h == l.rank {
				l.dropReplica(b)
				continue
			}
			kept = append(kept, h)
		}
		mp.holders = kept
	}

	nb := &gas.Block{ID: b, Kind: gas.KindData, BSize: mp.bsize, Data: append([]byte(nil), mp.data...), Home: mp.g.Home()}
	l.exec.Charge(l.w.cfg.Model.CopyTime(len(mp.data)))
	if err := l.store.Insert(nb); err != nil {
		l.w.fail("rank %d: migrate install: %v", l.rank, err)
	}
	l.space.InstallMigrated(b)
	l.note(noteMigInstall, b, 0, 0)
	mp.data = nil
	if mp.replicated {
		l.w.rehomeReplicas(b, l.rank, mp.holders, l.post)
	}
	l.SendParcel(&parcel.Parcel{
		Action:  aMigrateCommit,
		Target:  l.w.LocalityGVA(mp.g.Home()),
		Payload: encodeMig(migPayload{g: mp.g, to: l.rank, oldOwner: mp.oldOwner, cAction: mp.cAction, cTarget: mp.cTarget}),
	})
}

// migrateCommit runs at the block's home: the directory flip.
func migrateCommit(c *Ctx) {
	l := c.l
	mp := decodeMig(c.P.Payload)
	b := mp.g.Block()

	l.space.CommitMigrate(b, mp.to)
	l.note(noteMigCommit, b, 0, 0)
	l.SendParcel(&parcel.Parcel{
		Action:  aMigrateDone,
		Target:  l.w.LocalityGVA(mp.oldOwner),
		Payload: encodeMig(migPayload{g: mp.g, to: mp.to, oldOwner: mp.oldOwner, cAction: mp.cAction, cTarget: mp.cTarget}),
	})
}

// migrateDone runs at the old owner: unpin, tombstone, flush, notify.
func migrateDone(c *Ctx) {
	l := c.l
	mp := decodeMig(c.P.Payload)
	b := mp.g.Block()

	if _, ok := l.store.Remove(b); !ok {
		l.w.fail("rank %d: migrate.done without resident block %d", l.rank, b)
	}
	l.space.FinishMigrate(b, mp.to)

	st := l.moveOf(b)
	delete(l.moving, b)
	if st == nil {
		l.w.fail("rank %d: migrate.done for block %d that was not moving", l.rank, b)
	}
	l.stats.Migrations++
	l.note(TraceMigrateDone, b, uint64(mp.to), 0)
	for _, qm := range st.queued {
		// A duplicate that was queued while its original executed here
		// must not chase the block to the new owner.
		if !l.relFlushOK(qm) {
			continue
		}
		l.routeMsg(qm)
	}
	if !mp.cTarget.IsNull() {
		l.continueTo(mp.cAction, mp.cTarget, parcel.PutI64(nil, MigrateOK))
	}
	if st.install != nil {
		// The parked install runs as the rest of this action.
		c.P = st.install
		migrateData(c)
	}
}
