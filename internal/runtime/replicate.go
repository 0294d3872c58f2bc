package runtime

import (
	"fmt"
	"slices"

	"nmvgas/internal/agas"
	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// Coherent read replication. A layout can be replicated live: each block
// keeps its single writable master (the owner ownership routing resolves
// to) and gains a set of read replicas on holder localities. The master's
// address space tracks the replica set in its owner-side directory
// (agas.Directory.SetReplicas); every other locality learns where its
// reads should go (NIC read routes under agas-nm, host replica routes
// under agas-sw/pgas). Writes, parcels, and migration keep working:
//
//   - writes always resolve to the master and fan out coherence traffic
//     per Config.Coherence — invalidations (kReplInval), full-block
//     updates (kReplUpdate), or nothing (RW leases, where replicas
//     self-expire);
//   - a stale holder refills single-flight through kReplFill /
//     kReplFillRep, chasing the master through ordinary ownership
//     routing, and meanwhile forwards reads to the master;
//   - migration moves the master and re-homes the replica set: the set
//     travels in the migration payload, the destination's directory
//     becomes its owner-side record, and every locality's read route is
//     reinstalled against the new master.
//
// Replicas stay invisible to ownership routing: the NIC residency oracle
// and the host fast paths treat them as non-resident, so executing an
// action or applying a write still happens exactly once, at the master.
// Only traffic marked Read (kGetReq/kGetVec) is ever steered to them.

// replHolder is the holder-side coherence state for one replica resident
// on a locality, written only as that locality (see Locality.replicas).
type replHolder struct {
	// master is the block's current owner (updated when the master
	// migrates); home is the block's home rank, the routing anchor a
	// refill chases the master through.
	master, home int
	// stale marks the copy invalid (an invalidation arrived, or the
	// lease expired); reads chase the master until the refill lands.
	stale bool
	// filling makes refills single-flight: set when a kReplFill is in
	// the air, cleared when its reply installs.
	filling bool
	// expiry is the lease horizon on the latency clock (RW-lease policy
	// only): past it the copy flips stale and refills.
	expiry int64
}

// readTarget picks which member of a replica set should serve rank r's
// reads: the nearest by fabric distance, with ties spread across ranks so
// uniform-distance topologies (crossbar) still scale read throughput with
// replica count instead of electing one hot holder. ok is false when r is
// the master or a holder, which reads its own copy.
func (w *World) readTarget(r, master int, holders []int) (target int, ok bool) {
	if r == master || slices.Contains(holders, r) {
		return 0, false
	}
	cands := make([]int, 0, len(holders)+1)
	cands = append(cands, holders...)
	cands = append(cands, master)
	// r is none of the candidates, so every distance is between two
	// distinct ranks.
	best := w.net.hops(r, cands[0])
	for _, c := range cands[1:] {
		best = min(best, w.net.hops(r, c))
	}
	ties := cands[:0]
	for _, c := range cands {
		if w.net.hops(r, c) == best {
			ties = append(ties, c)
		}
	}
	return ties[r%len(ties)], true
}

// replicaFresh reports whether this locality holds a fresh replica of b
// (fresh, holder) and lazily maintains the holder state: an expired lease
// flips the copy stale, and a stale copy kicks a single-flight refill.
// It runs inside the rank: its NIC oracle, its handlers, its DES events.
func (l *Locality) replicaFresh(b gas.BlockID) (bool, bool) {
	st := l.replicas[b]
	if st == nil {
		return false, false
	}
	if !st.stale && l.w.cfg.Coherence == agas.RWLease && l.exec.latNow() > st.expiry {
		st.stale = true
	}
	stale := st.stale
	if stale && !st.filling {
		st.filling = true
		l.sendReplFill(b, st.home)
	}
	return !stale, true
}

// residentForRead is the NIC's replica oracle: a read may be served here,
// below the host, when a fresh replica is resident. The replCount gate
// keeps the unreplicated hot path at one atomic load.
func (l *Locality) residentForRead(b gas.BlockID) bool {
	if l.w.replCount.Load() == 0 {
		return false
	}
	fresh, _ := l.replicaFresh(b)
	return fresh
}

// replicaMaster returns the holder state's master rank, or fallback when
// this locality holds no state for b (a read racing an unreplicate).
func (l *Locality) replicaMaster(b gas.BlockID, fallback int) int {
	if st := l.replicas[b]; st != nil {
		return st.master
	}
	return fallback
}

// replMarkStale flips b's local replica stale and kicks the single-flight
// refill (invalidation arrival).
func (l *Locality) replMarkStale(b gas.BlockID) bool {
	st := l.replicas[b]
	if st == nil {
		return false
	}
	st.stale = true
	if !st.filling {
		st.filling = true
		l.sendReplFill(b, st.home)
	}
	return true
}

// sendReplFill asks the master for a fresh snapshot of b. The request
// carries a real Target and rides ordinary ownership routing, so it
// queues behind migrations and chases tombstones like any other message
// — the holder does not need to know where the master currently lives.
func (l *Locality) sendReplFill(b gas.BlockID, home int) {
	m := l.free.Message()
	*m = netsim.Message{Kind: kReplFill, Src: l.rank, Target: gas.New(home, b, 0), Wire: 32, OpID: l.newOpID()}
	l.note(noteOpStart, b, 0, m.OpID)
	l.routeMsg(m)
}

// replFanOut runs at the master after a write applied to b: per the
// coherence policy it pushes invalidations or full-block updates to every
// holder, from NIC context behind the NIC door and as host injections
// otherwise (see send; the host-serialized storm is the cost the
// experiment measures). Under RW leases writers stay silent; replicas
// self-expire.
func (l *Locality) replFanOut(b gas.BlockID, nic bool) {
	if l.w.replCount.Load() == 0 {
		return
	}
	rs, ok := l.space.Directory().Replicas(b)
	if !ok || len(rs.Holders) == 0 {
		return
	}
	pol := l.w.cfg.Coherence
	if pol == agas.RWLease {
		return
	}
	var snap []byte
	if pol == agas.WriteUpdate {
		blk, ok := l.store.Get(b)
		if !ok {
			return
		}
		snap = make([]byte, blk.BSize)
		if err := l.store.ReadAt(b, 0, snap); err != nil {
			l.w.fail("rank %d: replica update snapshot: %v", l.rank, err)
		}
	}
	for _, h := range rs.Holders {
		m := l.free.Message()
		m.Src = l.rank
		m.Dst = h
		m.Block = b
		m.OpID = l.newOpID()
		l.note(noteOpStart, b, 0, m.OpID)
		if pol == agas.WriteUpdate {
			m.Kind = kReplUpdate
			// Each message owns its payload: holders release theirs
			// independently.
			m.Payload = append([]byte(nil), snap...)
			m.Wire = 32 + len(snap)
		} else {
			m.Kind = kReplInval
			m.Wire = 32
		}
		l.send(m, nic)
	}
}

// ---------------------------------------------------------------------
// Coherence message handlers (onHostMsg dispatch)

// onReplInval marks the local replica stale and starts the refill. A
// hot replicated block is read-mostly by construction, so refreshing
// eagerly (instead of waiting for the next read to fault) keeps the
// replica serving; reads in the stale window chase the master.
func (l *Locality) onReplInval(m *netsim.Message) {
	if l.replMarkStale(m.Block) {
		l.stats.ReplicaInvals++
		l.note(noteReplInval, m.Block, 0, m.OpID)
	}
}

// onReplUpdate installs the master's post-write snapshot in place.
func (l *Locality) onReplUpdate(m *netsim.Message) {
	b := m.Block
	if st := l.replicas[b]; st != nil {
		// A racing unreplicate may have removed the copy; the write is
		// best-effort on purpose.
		if err := l.store.WriteAt(b, 0, m.Payload); err == nil {
			st.stale = false
			l.stats.ReplicaUpdates++
			l.note(noteReplUpdate, b, 0, m.OpID)
		}
	}
}

// onReplFill answers at the master with a snapshot. It mirrors the
// one-sided receive contract: queue behind migrations, repair stale
// deliveries through the address-space strategy, and rely on the tracked
// reply (not regeneration) to survive a lost first answer.
func (l *Locality) onReplFill(m *netsim.Message) {
	b := m.Target.Block()
	blk, ok := l.admit(m, b, nil, false)
	if !ok {
		return
	}
	if !l.relAccept(m) {
		l.free.Release(m)
		return
	}
	snap := make([]byte, blk.BSize)
	if err := l.store.ReadAt(b, 0, snap); err != nil {
		l.w.fail("rank %d: replica fill snapshot: %v", l.rank, err)
	}
	l.exec.Charge(l.w.cfg.Model.CopyTime(len(snap)))
	rep := l.free.Message()
	*rep = netsim.Message{Kind: kReplFillRep, Src: l.rank, Dst: m.Src, Block: b,
		Payload: snap, Wire: 32 + len(snap), OpID: m.OpID}
	l.free.Release(m)
	l.inject(rep, rep.Dst)
}

// onReplFillRep installs the refill at the holder and re-arms the lease.
func (l *Locality) onReplFillRep(m *netsim.Message) {
	b := m.Block
	if st := l.replicas[b]; st != nil {
		if err := l.store.WriteAt(b, 0, m.Payload); err == nil {
			st.stale, st.filling = false, false
			st.expiry = l.exec.latNow() + leaseNs
			l.stats.ReplicaFills++
			l.note(noteReplFill, b, 0, m.OpID)
		}
	}
}

// ---------------------------------------------------------------------
// Driver API (setup-phase, like alloc/Free)

// ReplicateLive installs `replicas` coherent read replicas per block of
// lay, on the ranks following each block's current master. The layout
// stays live: writes keep landing at the masters (fanning out coherence
// traffic per Config.Coherence) and blocks keep migrating (the replica
// set follows the master). The install is all-or-nothing: on any error
// every already-installed set is rolled back and the world is unchanged.
func (w *World) ReplicateLive(lay gas.Layout, replicas int) error {
	if !w.caps.Replication {
		return fmt.Errorf("runtime: address space %q cannot replicate", w.caps.Name)
	}
	if replicas < 0 || replicas > w.cfg.Ranks-1 {
		return fmt.Errorf("runtime: %d replicas out of range [0,%d]", replicas, w.cfg.Ranks-1)
	}
	if replicas == 0 {
		return nil
	}
	type set struct {
		b       gas.BlockID
		master  int
		holders []int
	}
	// Validate everything before touching anything.
	plan := make([]set, 0, lay.NBlocks)
	for d := uint32(0); d < lay.NBlocks; d++ {
		b := lay.Base.Block() + gas.BlockID(d)
		owner := w.homeOwner(b, lay.HomeOf(d))
		var err error
		w.claim(owner, func() { err = w.locs[owner].replicable(b) })
		if err != nil {
			return err
		}
		holders := make([]int, replicas)
		for i := range holders {
			holders[i] = (owner + 1 + i) % w.cfg.Ranks
		}
		plan = append(plan, set{b: b, master: owner, holders: holders})
	}
	for i := range plan {
		if err := w.installReplicaSet(lay, plan[i].b, plan[i].master, plan[i].holders); err != nil {
			for j := i - 1; j >= 0; j-- {
				w.removeReplicaSet(plan[j].b, plan[j].master, plan[j].holders)
			}
			return err
		}
	}
	return nil
}

// replicable is ReplicateLive's check of b at its owner, run as the
// owner: a resident, settled master data block with no replica set yet.
func (l *Locality) replicable(b gas.BlockID) error {
	blk, ok := l.store.Get(b)
	switch {
	case !ok:
		return fmt.Errorf("runtime: replicate of non-resident block %d", b)
	case blk.Kind != gas.KindData:
		return fmt.Errorf("runtime: replicate of non-data block %d", b)
	case blk.Replica:
		return fmt.Errorf("runtime: block %d's owner %d holds only a replica", b, l.rank)
	case l.moveOf(b) != nil:
		return fmt.Errorf("runtime: replicate of block %d mid-migration", b)
	}
	if _, already := l.space.Directory().Replicas(b); already {
		return fmt.Errorf("runtime: block %d is already replicated", b)
	}
	return nil
}

// installReplicaSet copies the master snapshot to every holder, records
// the set in the master's owner-side directory, and installs the read
// routes world-wide, claiming each rank it reads or writes. On error it
// unwinds its own partial work.
func (w *World) installReplicaSet(lay gas.Layout, b gas.BlockID, master int, holders []int) error {
	ml := w.locs[master]
	var blk *gas.Block
	var snap []byte
	w.claim(master, func() {
		if got, ok := ml.store.Get(b); ok {
			blk, snap = got, append([]byte(nil), got.Data...)
		}
	})
	if blk == nil {
		return fmt.Errorf("runtime: replicate of non-resident block %d", b)
	}
	home := lay.HomeOf(uint32(b - lay.Base.Block()))
	now := w.net.latNow()
	for i, h := range holders {
		hl := w.locs[h]
		replica := &gas.Block{ID: b, Kind: gas.KindData, BSize: blk.BSize,
			Data: append([]byte(nil), snap...), Home: home, Pinned: true, Replica: true}
		var err error
		w.claim(h, func() {
			if err = hl.store.Insert(replica); err != nil {
				return
			}
			if hl.replicas == nil {
				hl.replicas = make(map[gas.BlockID]*replHolder)
			}
			hl.replicas[b] = &replHolder{master: master, home: home, expiry: now + leaseNs}
		})
		if err != nil {
			for _, u := range holders[:i] {
				w.claim(u, func() { w.locs[u].dropReplica(b) })
			}
			return fmt.Errorf("runtime: replicate: %w", err)
		}
	}
	w.claim(master, func() { ml.space.Directory().SetReplicas(b, master, holders) })
	for _, loc := range w.locs {
		w.claim(loc.rank, func() { loc.space.InstallReplicas(b, master, holders) })
	}
	w.replCount.Add(1)
	return nil
}

// removeReplicaSet is installReplicaSet's inverse (rollback and
// unreplicate share it), claiming each rank it writes.
func (w *World) removeReplicaSet(b gas.BlockID, master int, holders []int) {
	for _, h := range holders {
		w.claim(h, func() { w.locs[h].dropReplica(b) })
	}
	w.claim(master, func() { w.locs[master].space.Directory().DropReplicas(b) })
	for _, loc := range w.locs {
		w.claim(loc.rank, func() { loc.space.DropReplicas(b) })
	}
	w.replCount.Add(-1)
}

// rehomeReplicas re-anchors b's replica set at its new master after a
// migration; it runs as the master. The master's directory becomes the
// owner-side record, every holder learns where writes now live, and all
// read routes are reinstalled against the new geometry: each holder
// record and each rank's routes, host or NIC, written through write. A
// set whose holders migrated away entirely (the destination was the sole
// holder) dissolves.
func (w *World) rehomeReplicas(b gas.BlockID, master int, holders []int, write rankWrite) {
	if len(holders) == 0 {
		for _, loc := range w.locs {
			write(loc.rank, func() { loc.space.DropReplicas(b) })
		}
		w.replCount.Add(-1)
		return
	}
	w.locs[master].space.Directory().SetReplicas(b, master, holders)
	for _, h := range holders {
		hl := w.locs[h]
		write(h, func() {
			if st := hl.replicas[b]; st != nil {
				st.master = master
			}
		})
	}
	for _, loc := range w.locs {
		write(loc.rank, func() {
			loc.space.DropReplicas(b)
			loc.space.InstallReplicas(b, master, holders)
		})
	}
}

// dropReplica removes l's read copy of b, if it holds one, and forgets
// the holder-side coherence record for b; it runs as l.
func (l *Locality) dropReplica(b gas.BlockID) {
	if blk, ok := l.store.Get(b); ok && blk.Replica {
		l.store.Remove(b)
	}
	delete(l.replicas, b)
}

// Unreplicate removes lay's replica sets: holders drop their copies and
// every read route is withdrawn; the masters keep serving. Blocks of lay
// that were never replicated are skipped, so Unreplicate is idempotent.
func (w *World) Unreplicate(lay gas.Layout) error {
	for d := uint32(0); d < lay.NBlocks; d++ {
		b := lay.Base.Block() + gas.BlockID(d)
		owner := w.homeOwner(b, lay.HomeOf(d))
		var rs agas.ReplicaSet
		var ok bool
		w.claim(owner, func() { rs, ok = w.locs[owner].space.Directory().Replicas(b) })
		if ok {
			w.removeReplicaSet(b, owner, rs.Holders)
		}
	}
	return nil
}

// ReplicatedBlocks reports how many blocks currently have live replica
// sets installed (driver-side observability).
func (w *World) ReplicatedBlocks() int { return int(w.replCount.Load()) }
