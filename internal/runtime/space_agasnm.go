package runtime

import (
	"nmvgas/internal/agas"
	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/nmagas"
	"nmvgas/internal/parcel"
)

// nmSpace is the paper's network-managed AGAS: the host injects with
// netsim.ByGVA and the NIC translates, forwards in-network, and repairs
// its own tables. The host keeps only the authoritative home directory;
// every change to it is mirrored into NIC state at the migration
// protocol points (BeginMigrate/CommitMigrate/FinishMigrate).

var nmCaps = Caps{Name: "agas-nm", Migration: true, NICTranslation: true, Replication: true}

func nmBuilder() spaceBuilder {
	return spaceBuilder{
		caps: nmCaps,
		initWorld: func(w *World) {
			w.mirror = nmagas.NewMirror(w.net, w.cfg.NMUpdate)
		},
		newLocal: func(l *Locality) AddressSpace {
			return &nmSpace{l: l, dir: agas.NewDirectory()}
		},
	}
}

type nmSpace struct {
	l *Locality
	// dir is authoritative for blocks homed at this locality.
	dir *agas.Directory
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

func (s *nmSpace) BeginMigrate(b gas.BlockID) {
	// Route-to-self steers misrouted traffic to this host while the
	// block is pinned, so it queues rather than bouncing.
	l := s.l
	l.exec.Charge(l.w.cfg.Model.NICUpdate)
	l.w.net.State(l.rank, func(st *netsim.TransState) { st.InstallRoute(b, l.rank) })
}

func (s *nmSpace) InstallMigrated(b gas.BlockID) {
	l := s.l
	l.exec.Charge(l.w.cfg.Model.NICUpdate)
	l.w.mirror.ClearResident(l.rank, b)
}

func (s *nmSpace) CommitMigrate(b gas.BlockID, newOwner int) {
	l := s.l
	s.dir.Set(b, newOwner, l.rank)
	l.exec.Charge(l.w.cfg.Model.NICUpdate)
	l.w.mirror.CommitAtHome(l.rank, b, newOwner)
}

func (s *nmSpace) FinishMigrate(b gas.BlockID, newOwner int) {
	l := s.l
	l.exec.Charge(l.w.cfg.Model.NICUpdate)
	l.w.mirror.TombstoneAtOldOwner(l.rank, b, newOwner)
}

func (s *nmSpace) AbortMigrate(b gas.BlockID) {
	// Undo BeginMigrate's route-to-self so traffic resolves normally
	// again.
	l := s.l
	l.exec.Charge(l.w.cfg.Model.NICUpdate)
	l.w.mirror.ClearResident(l.rank, b)
}

func (s *nmSpace) HomeOwner(b gas.BlockID) int {
	return s.dir.Resolve(b, s.l.rank)
}

func (s *nmSpace) OnFree(b gas.BlockID, home int) {
	s.dir.DropReplicas(b)
	if s.l.rank == home {
		s.dir.Drop(b)
	}
}

func (s *nmSpace) InstallReplicas(b gas.BlockID, master int, holders []int) {
	// The replica set lives in the network: non-holder ranks get a NIC
	// read route to a nearby replica, so reads of hot blocks resolve in
	// the fabric with zero host detours. Holders and the master serve
	// reads from local memory.
	l := s.l
	r := l.rank
	if r == master {
		return
	}
	for _, h := range holders {
		if h == r {
			return
		}
	}
	target := l.w.readTarget(r, master, holders)
	l.w.net.State(r, func(st *netsim.TransState) { st.InstallReadRoute(b, target) })
}

func (s *nmSpace) DropReplicas(b gas.BlockID) {
	s.l.w.net.State(s.l.rank, func(st *netsim.TransState) { st.DropReadRoute(b) })
}

// ReadRoute is a no-op: read steering happens in the NIC, not in host
// software.
func (s *nmSpace) ReadRoute(gas.BlockID) (int, bool) { return 0, false }

func (s *nmSpace) Directory() *agas.Directory   { return s.dir }
func (s *nmSpace) Cache() *agas.SWCache         { return nil }
func (s *nmSpace) Tombstones() *agas.Tombstones { return nil }
