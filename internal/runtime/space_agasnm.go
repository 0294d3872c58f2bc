package runtime

import (
	"nmvgas/internal/agas"
	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// nmSpace is the paper's network-managed AGAS: the host injects with
// netsim.ByGVA and the NIC translates, forwards in-network, and repairs
// its own tables. The host keeps only the authoritative home directory;
// each locality writes every change to it into its own NIC at the
// migration protocol points: route-to-self while the block is pinned
// (BeginMigrate), no route once it is resident or gone
// (InstallMigrated, AbortMigrate, OnFree), the authoritative route at
// the home (CommitMigrate) and the forwarding route at the old owner
// (FinishMigrate). Each migration step charges one NICUpdate.

var nmCaps = Caps{Name: "agas-nm", Migration: true, NICTranslation: true, Replication: true}

func nmBuilder() spaceBuilder {
	return spaceBuilder{caps: nmCaps, newLocal: func(l *Locality) AddressSpace {
		return &nmSpace{l: l, dir: agas.NewDirectory()}
	}}
}

type nmSpace struct {
	l *Locality
	// dir is authoritative for blocks homed at this locality.
	dir *agas.Directory
	// bcast holds, under Policy.BroadcastUpdates, the table entries of
	// the commits made at this home since its flush was armed
	// (bcastArmed). Only this rank's context touches them.
	bcast      []byte
	bcastArmed bool
}

func (s *nmSpace) Caps() Caps { return nmCaps }

// Translate delegates to the NIC; software only injects.
func (s *nmSpace) Translate(gas.GVA) int { return netsim.ByGVA }

func (s *nmSpace) OwnerHint(b gas.BlockID, home int) int {
	if s.l.rank == home {
		return s.dir.Resolve(b, home)
	}
	return home
}

func (s *nmSpace) OnStaleDelivery(m *netsim.Message, p *parcel.Parcel) {
	// The NIC normally repairs this below the host; reaching here means
	// the message was host-delivered in the window between a NIC
	// routing decision and a migration completing. The NIC's
	// authoritative state (tombstone or home mirror) or the home
	// directory knows where the block went — rescue by re-routing.
	l := s.l
	b := m.Target.Block()
	if owner, ok := s.rescueTarget(b, m.Target.Home()); ok {
		fwd := *m
		l.routeToExplicit(&fwd, owner)
		return
	}
	if l.relStaleDrop(m) {
		return
	}
	if p != nil {
		l.w.fail("rank %d (nm): parcel %v for non-resident block %d", l.rank, p, b)
	}
	l.w.fail("rank %d (nm): one-sided fault on block %d", l.rank, b)
}

// rescueTarget finds where to redirect host-delivered traffic for a
// block that left this locality mid-delivery: the NIC's authoritative
// route first, then the home directory.
func (s *nmSpace) rescueTarget(b gas.BlockID, home int) (int, bool) {
	l := s.l
	owner, ok := 0, false
	l.w.net.State(l.rank, func(st *netsim.TransState) { owner, ok = st.Route(b) })
	if ok && owner != l.rank {
		return owner, true
	}
	if l.rank == home {
		if owner, ok := s.dir.Owner(b); ok && owner != l.rank {
			return owner, true
		}
	}
	return 0, false
}

// LearnOwner is a no-op: owner corrections flow through NIC state
// (CtlTableUpdate pushes and NACK repair), not host software.
func (s *nmSpace) LearnOwner(gas.BlockID, int) {}

// update charges one NICUpdate on this rank and applies fn to its NIC.
func (s *nmSpace) update(fn func(*netsim.TransState)) {
	s.l.exec.Charge(s.l.w.cfg.Model.NICUpdate)
	s.l.w.net.State(s.l.rank, fn)
}

func (s *nmSpace) BeginMigrate(b gas.BlockID) {
	// Route-to-self steers misrouted traffic to this host while the
	// block is pinned, so it queues rather than bouncing.
	s.update(func(st *netsim.TransState) { st.InstallRoute(b, s.l.rank) })
}

// InstallMigrated clears any route an earlier visit left here: the NIC
// of a block's owner must not say it lives elsewhere.
func (s *nmSpace) InstallMigrated(b gas.BlockID) {
	s.update(func(st *netsim.TransState) { st.ClearResident(b) })
}

func (s *nmSpace) CommitMigrate(b gas.BlockID, newOwner int) {
	s.dir.Set(b, newOwner, s.l.rank)
	s.update(func(st *netsim.TransState) { st.InstallRoute(b, newOwner) })
	if !s.l.w.cfg.Policy.BroadcastUpdates {
		return
	}
	// Eager propagation: every commit at this home within one simulated
	// instant rides one CtlTableBatch per NIC, flushed once the
	// committing step is done, so a burst costs O(ranks) messages.
	s.bcast = netsim.AppendTableEntry(s.bcast, b, newOwner)
	if !s.bcastArmed {
		s.bcastArmed = true
		s.l.w.net.Defer(s.l.rank, s.flushBroadcast)
	}
}

// flushBroadcast sends the queued entries to every other NIC, one
// message each sharing the bytes (read-only from here on); each
// receiving NIC releases its own.
func (s *nmSpace) flushBroadcast() {
	l, entries := s.l, s.bcast
	s.bcast, s.bcastArmed = nil, false
	for r := 0; r < l.w.cfg.Ranks; r++ {
		if r != l.rank {
			m := l.free.Message()
			m.Ctl, m.Src, m.Dst, m.Payload, m.Wire = netsim.CtlTableBatch, l.rank, r, entries, 32+len(entries)
			l.w.net.Send(l.rank, m)
		}
	}
}

// FinishMigrate leaves the forwarding route at the old owner, so
// in-flight and stale traffic bounces onward without the host.
func (s *nmSpace) FinishMigrate(b gas.BlockID, newOwner int) {
	s.update(func(st *netsim.TransState) { st.InstallRoute(b, newOwner) })
}

// AbortMigrate undoes BeginMigrate's route-to-self.
func (s *nmSpace) AbortMigrate(b gas.BlockID) {
	s.update(func(st *netsim.TransState) { st.ClearResident(b) })
}

func (s *nmSpace) HomeOwner(b gas.BlockID) int {
	return s.dir.Resolve(b, s.l.rank)
}

// OnFree also sweeps this rank's NIC, uncharged: free is a setup-phase
// operation here, not a simulated broadcast.
func (s *nmSpace) OnFree(b gas.BlockID, home int) {
	s.dir.DropReplicas(b)
	if s.l.rank == home {
		s.dir.Drop(b)
	}
	s.nic(func(st *netsim.TransState) { st.ClearResident(b) })
}

// InstallReplicas gives a non-holder rank a NIC read route to a nearby
// replica, so reads of hot blocks resolve in the fabric with zero host
// detours.
func (s *nmSpace) InstallReplicas(b gas.BlockID, master int, holders []int) {
	if t, ok := s.l.w.readTarget(s.l.rank, master, holders); ok {
		s.nic(func(st *netsim.TransState) { st.InstallReadRoute(b, t) })
	}
}

func (s *nmSpace) DropReplicas(b gas.BlockID) {
	s.nic(func(st *netsim.TransState) { st.DropReadRoute(b) })
}

// nic writes this rank's NIC state, uncharged.
func (s *nmSpace) nic(fn func(*netsim.TransState)) { s.l.w.net.State(s.l.rank, fn) }

// ReadRoute is a no-op: read steering happens in the NIC, not in host
// software.
func (s *nmSpace) ReadRoute(gas.BlockID) (int, bool) { return 0, false }

func (s *nmSpace) Directory() *agas.Directory   { return s.dir }
func (s *nmSpace) Cache() *agas.SWCache         { return nil }
func (s *nmSpace) Tombstones() *agas.Tombstones { return nil }
