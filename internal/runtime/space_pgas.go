package runtime

import (
	"nmvgas/internal/agas"
	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// pgasSpace is the static-translation baseline: the classical
// partitioned global address space in which an address's owner is a
// pure function of the address — its encoded home. Translation is
// arithmetic (no table, no directory, no network state), which makes it
// the latency floor every AGAS design is measured against. The price is
// rigidity: blocks can never move, so data locality can only be chosen
// once, at allocation, and nothing can be stale.

var pgasCaps = Caps{Name: "pgas", Replication: true}

func pgasBuilder() spaceBuilder {
	return spaceBuilder{
		caps: pgasCaps,
		newLocal: func(l *Locality) AddressSpace {
			return &pgasSpace{
				l:      l,
				dir:    agas.NewDirectory(),
				routes: agas.NewReplicaRoutes(),
			}
		},
	}
}

type pgasSpace struct {
	l *Locality
	// dir holds no ownership entries (ownership is static) — it exists
	// purely as the owner-side replica directory.
	dir *agas.Directory
	// routes is the static read-routing table filled at ReplicateLive
	// time: consistent with pgas philosophy, it never changes between
	// install and drop.
	routes *agas.ReplicaRoutes
}

func (s *pgasSpace) Caps() Caps { return pgasCaps }

func (s *pgasSpace) Translate(g gas.GVA) int {
	h := g.Home()
	if h >= s.l.w.cfg.Ranks {
		s.l.w.fail("rank %d (pgas): translate %v: %v", s.l.rank, g, gas.ErrBadAddress)
	}
	// Static translation has no directory to re-resolve through, so the
	// membership overlay is the only escape from a dead owner: promoted
	// replicas of blocks whose home died are reached through it (one nil
	// check until a membership view is published).
	return s.l.view.redirect(g.Block(), h, h)
}

func (s *pgasSpace) OwnerHint(b gas.BlockID, home int) int { return home }

func (s *pgasSpace) OnStaleDelivery(m *netsim.Message, p *parcel.Parcel) {
	// Static addressing cannot be stale: a non-resident delivery means
	// the target was never allocated (or already freed). Under the
	// reliability layer a duplicated message can outlive a free — drop
	// it with an ack instead of dying.
	if s.l.relStaleDrop(m) {
		return
	}
	if p != nil {
		s.l.w.fail("rank %d (pgas): parcel %v for non-resident block %d", s.l.rank, p, m.Target.Block())
	}
	s.l.w.fail("rank %d (pgas): one-sided op on non-resident block %d", s.l.rank, m.Target.Block())
}

func (s *pgasSpace) LearnOwner(gas.BlockID, int) {}

// The migration hooks are unreachable: migrateReq refuses before
// pinning because Caps().Migration is false. Reaching one is a protocol
// bug.
func (s *pgasSpace) BeginMigrate(b gas.BlockID)         { s.noMigration(b) }
func (s *pgasSpace) InstallMigrated(b gas.BlockID)      { s.noMigration(b) }
func (s *pgasSpace) CommitMigrate(b gas.BlockID, _ int) { s.noMigration(b) }
func (s *pgasSpace) FinishMigrate(b gas.BlockID, _ int) { s.noMigration(b) }
func (s *pgasSpace) AbortMigrate(b gas.BlockID)         { s.noMigration(b) }

func (s *pgasSpace) noMigration(b gas.BlockID) {
	s.l.w.fail("rank %d: migration hook for block %d: pgas: static addressing cannot migrate blocks", s.l.rank, b)
}

func (s *pgasSpace) HomeOwner(gas.BlockID) int { return s.l.rank }

func (s *pgasSpace) OnFree(b gas.BlockID, _ int) {
	s.dir.DropReplicas(b)
	s.routes.Drop(b)
}

func (s *pgasSpace) InstallReplicas(b gas.BlockID, master int, holders []int) {
	if t, ok := s.l.w.readTarget(s.l.rank, master, holders); ok {
		s.routes.Set(b, t)
	}
}

func (s *pgasSpace) DropReplicas(b gas.BlockID) { s.routes.Drop(b) }

func (s *pgasSpace) ReadRoute(b gas.BlockID) (int, bool) {
	// Static table fill: no per-read charge, mirroring pgas's zero-cost
	// address arithmetic.
	return s.routes.Get(b)
}

func (s *pgasSpace) Directory() *agas.Directory   { return s.dir }
func (s *pgasSpace) Cache() *agas.SWCache         { return nil }
func (s *pgasSpace) Tombstones() *agas.Tombstones { return nil }
