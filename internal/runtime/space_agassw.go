package runtime

import (
	"nmvgas/internal/agas"
	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// swSpace is software-managed AGAS: every send pays a host-side lookup
// (home directory when sending from home, else a bounded translation
// cache), stale deliveries are repaired by host forwarding with
// correction messages back to the source, and old owners keep host
// tombstones so traffic chases migrated blocks.

var swCaps = Caps{Name: "agas-sw", Migration: true, HostTranslation: true, Replication: true}

func swBuilder() spaceBuilder {
	return spaceBuilder{
		caps: swCaps,
		newLocal: func(l *Locality) AddressSpace {
			return &swSpace{
				l:      l,
				dir:    agas.NewDirectory(),
				cache:  agas.NewSWCache(0, l.w.cfg.SWCorrection),
				tombs:  agas.NewTombstones(),
				routes: agas.NewReplicaRoutes(),
			}
		},
	}
}

type swSpace struct {
	l *Locality
	// dir is authoritative for blocks homed at this locality, and is
	// the owner-side replica directory for blocks mastered here.
	dir   *agas.Directory
	cache *agas.SWCache
	tombs *agas.Tombstones
	// routes is the host-cached replica read-routing table: pushed to
	// every locality at install time, probed (at SWLookup cost) on each
	// read of a replicated block.
	routes *agas.ReplicaRoutes
}

func (s *swSpace) Caps() Caps { return swCaps }

func (s *swSpace) Translate(g gas.GVA) int {
	// Software translation on the host's dime.
	l := s.l
	l.exec.Charge(l.w.cfg.Model.SWLookup)
	l.stats.SWLookups++
	b := g.Block()
	dst := g.Home()
	if l.rank == dst {
		// We are home: the directory is local and authoritative.
		dst = s.dir.Resolve(b, l.rank)
		if dst == l.rank {
			if l.view.isLost(b) {
				// The block died with its owner: deliver to self, where
				// the stale-delivery path terminates the message with an
				// acked drop instead of a protocol failure.
				return dst
			}
			// Directory says it is here but it is not resident: the
			// block was never allocated.
			l.w.fail("rank %d: send to unallocated block %d", l.rank, b)
		}
	} else if o, ok := s.cache.Lookup(b); ok && o != l.rank {
		dst = o
	}
	// Steer around dead ranks (once a view is published): overlay route,
	// then the live home's authoritative directory, then the surrogate.
	return l.view.redirect(b, dst, g.Home())
}

func (s *swSpace) OwnerHint(b gas.BlockID, home int) int {
	if s.l.rank == home {
		return s.dir.Resolve(b, home)
	}
	if o, ok := s.cache.Lookup(b); ok {
		return o
	}
	return home
}

func (s *swSpace) OnStaleDelivery(m *netsim.Message, p *parcel.Parcel) {
	l := s.l
	b := m.Target.Block()
	if p != nil {
		// Host-level forwarding: the old owner (tombstone) or the home
		// (directory) redirects, then teaches the source.
		owner, ok := s.forwardTarget(b, p.Target.Home())
		if !ok {
			if l.relStaleDrop(m) {
				return
			}
			l.w.fail("rank %d: parcel %v for unallocated block %d", l.rank, p, b)
		}
		l.stats.HostForwards++
		l.note(TraceHostForward, b, uint64(owner), p.OpID)
		l.exec.Charge(l.w.cfg.Model.OSend)
		// Forward in place: the arrived message moves on, this host keeps
		// nothing of it.
		m.Dst = owner
		m.Hops++
		l.w.net.Send(l.rank, m)
		if p.Src != l.rank {
			upd := l.free.Message()
			upd.Kind = kOwnerUpd
			upd.Src = l.rank
			upd.Target = p.Target
			upd.Owner = owner
			upd.Wire = 32
			l.inject(upd, p.Src)
		}
		return
	}
	owner, ok := s.forwardTarget(b, m.Target.Home())
	if !ok && m.Read && l.rank != m.Target.Home() {
		// A read steered to a replica holder that has since dropped its
		// copy (unreplicate racing in-flight reads): the home directory
		// still resolves the master, chase through it.
		owner, ok = m.Target.Home(), true
	}
	if !ok {
		if l.relStaleDrop(m) {
			return
		}
		l.w.fail("rank %d: one-sided op on unallocated block %d", l.rank, b)
	}
	if m.Src == l.rank {
		// Our own op raced a migration: re-route directly.
		s.cache.Correct(b, owner)
		l.routeMsg(m)
		return
	}
	l.stats.HostNacks++
	nk := l.free.Message()
	nk.Kind = kHostNack
	nk.Src = l.rank
	nk.Target = m.Target
	nk.Block = b
	nk.Owner = owner
	nk.Wire = 32
	nk.Nacked = m // ownership of m transfers to the NACK
	l.inject(nk, m.Src)
}

// forwardTarget finds where to redirect traffic for a non-resident
// block: at the home the directory is authoritative (a tombstone here
// may be stale after the block moved on); elsewhere only the tombstone
// knows.
func (s *swSpace) forwardTarget(b gas.BlockID, home int) (int, bool) {
	if s.l.rank == home {
		if o, ok := s.dir.Owner(b); ok && o != s.l.rank {
			return o, true
		}
	}
	if o, ok := s.tombs.Get(b); ok {
		return o, true
	}
	return 0, false
}

func (s *swSpace) LearnOwner(b gas.BlockID, owner int) {
	s.cache.Correct(b, owner)
}

func (s *swSpace) BeginMigrate(gas.BlockID)    {}
func (s *swSpace) InstallMigrated(gas.BlockID) {}

func (s *swSpace) CommitMigrate(b gas.BlockID, newOwner int) {
	s.dir.Set(b, newOwner, s.l.rank)
}

func (s *swSpace) FinishMigrate(b gas.BlockID, newOwner int) {
	s.tombs.Put(b, newOwner)
	s.cache.Learn(b, newOwner)
}

func (s *swSpace) AbortMigrate(gas.BlockID) {}

func (s *swSpace) HomeOwner(b gas.BlockID) int {
	return s.dir.Resolve(b, s.l.rank)
}

func (s *swSpace) OnFree(b gas.BlockID, home int) {
	// Tombstones would only mislead future traffic for a reused
	// address; the home also forgets its directory entry.
	s.tombs.Drop(b)
	s.dir.DropReplicas(b)
	s.routes.Drop(b)
	if s.l.rank == home {
		s.dir.Drop(b)
	}
}

func (s *swSpace) InstallReplicas(b gas.BlockID, master int, holders []int) {
	if t, ok := s.l.w.readTarget(s.l.rank, master, holders); ok {
		s.routes.Set(b, t)
	}
}

func (s *swSpace) DropReplicas(b gas.BlockID) { s.routes.Drop(b) }

func (s *swSpace) ReadRoute(b gas.BlockID) (int, bool) {
	t, ok := s.routes.Get(b)
	if !ok {
		return 0, false
	}
	// Host-software replica routing: the probe costs a software lookup,
	// the same dime every sw translation pays.
	s.l.exec.Charge(s.l.w.cfg.Model.SWLookup)
	s.l.stats.SWLookups++
	return t, true
}

func (s *swSpace) Directory() *agas.Directory   { return s.dir }
func (s *swSpace) Cache() *agas.SWCache         { return s.cache }
func (s *swSpace) Tombstones() *agas.Tombstones { return s.tombs }
