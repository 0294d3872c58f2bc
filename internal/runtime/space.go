package runtime

import (
	"fmt"

	"nmvgas/internal/agas"
	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// The address-space strategy layer. Everything the three translation
// designs (static PGAS, software-managed AGAS, network-managed AGAS) do
// differently on the protocol paths lives behind the AddressSpace
// interface: send-side translation, stale-delivery repair, the
// per-phase migration hooks, and free-time cleanup. The shared protocol
// code in locality.go / migrate.go / alloc*.go never inspects
// Config.Mode — it calls the strategy. spaceBuilderFor below is the one
// place a Mode is mapped to an implementation; adding a fourth mode
// means writing one new implementation file and one new case there (see
// DESIGN.md §3).

// Caps describes what an address space can do. The runtime uses it for
// capability gating (e.g. refusing migration under static addressing)
// and for wiring the engines (NICTranslation turns on fabric GVA
// routing); experiment drivers use it instead of switching on Mode.
type Caps struct {
	// Name is the canonical short name ("pgas", "agas-sw", "agas-nm").
	Name string
	// Migration reports whether blocks can move after allocation.
	Migration bool
	// NICTranslation reports that the NIC resolves GVAs (sends are
	// injected with netsim.ByGVA and the fabric routes by ownership).
	NICTranslation bool
	// HostTranslation reports that host software resolves GVAs (caches,
	// host forwarding, host repair of stale one-sided operations).
	HostTranslation bool
	// Replication reports that layouts can be replicated live
	// (ReplicateLive): the space implements the replica install/route/
	// drop hooks and the coherence protocol keeps holders fresh.
	Replication bool
}

// AddressSpace is the per-locality translation strategy. One instance
// exists per Locality; every method runs as that locality's one writer
// (its own context, or a caller that claimed or posted to it), so its
// tables take no lock. Implementations charge their own simulated
// costs (SWLookup, NICUpdate, OSend for host forwards) so the shared
// protocol code stays cost-model-agnostic.
type AddressSpace interface {
	// Caps returns the capability descriptor (same value for every
	// locality of a world).
	Caps() Caps

	// Translate resolves the send-side destination for traffic to g:
	// a rank, or netsim.ByGVA to delegate translation to the NIC.
	Translate(g gas.GVA) int

	// OwnerHint is Translate's zero-cost sibling for coalescing: the
	// best cheap owner guess for b, with no simulated charge and no
	// failure mode (wrong guesses are repaired at the batch target).
	OwnerHint(b gas.BlockID, home int) int

	// OnStaleDelivery repairs m, delivered to this locality although
	// the block is not resident here (it migrated away, or the sender's
	// translation was stale). p is the decoded parcel for two-sided
	// traffic and nil for one-sided operations. The implementation
	// must forward, bounce, or fail loudly.
	OnStaleDelivery(m *netsim.Message, p *parcel.Parcel)

	// LearnOwner records host-software owner advice for b (correction
	// messages, NACK advice). NIC-table repair is not routed through
	// here — it stays on the NIC path (see Locality.onNICNack).
	LearnOwner(b gas.BlockID, owner int)

	// BeginMigrate runs at the current owner when a migration of b is
	// pinned, before the snapshot leaves.
	BeginMigrate(b gas.BlockID)
	// InstallMigrated runs at the destination after the block's bytes
	// are installed.
	InstallMigrated(b gas.BlockID)
	// CommitMigrate runs at the block's home: flip the authoritative
	// directory to newOwner and propagate per the mode's policy.
	CommitMigrate(b gas.BlockID, newOwner int)
	// FinishMigrate runs at the old owner once the home has committed:
	// leave whatever forwarding state the mode needs for stale traffic.
	FinishMigrate(b gas.BlockID, newOwner int)
	// AbortMigrate undoes BeginMigrate at the owner without moving the
	// block. The current protocol never aborts (migrations that cannot
	// proceed are refused before pinning), but the hook keeps the
	// interface total for strategies and tests that need it.
	AbortMigrate(b gas.BlockID)

	// HomeOwner returns the current owner of b as known at its home.
	// Must be called on the home locality's space (setup-phase paths:
	// Free, Replicate).
	HomeOwner(b gas.BlockID) int
	// OnFree forgets all translation state for b held at this locality,
	// host and NIC (home is b's home rank).
	OnFree(b gas.BlockID, home int)

	// InstallReplicas tells this locality that block b now has a
	// replica set (master plus holder ranks). Each space decides what
	// its rank needs: the network-managed space installs a NIC read
	// route on non-holder ranks, the host-translated spaces install a
	// host-side replica route, holders and the master need nothing.
	// Called on every locality at ReplicateLive time (setup-phase) and
	// whenever the set is re-homed.
	InstallReplicas(b gas.BlockID, master int, holders []int)
	// DropReplicas removes whatever InstallReplicas set up for b at
	// this locality (Unreplicate, Free).
	DropReplicas(b gas.BlockID)
	// ReadRoute resolves a read of b in host software: the rank whose
	// replica should serve it, charged per the mode's translation
	// story. ok is false when reads should follow ordinary ownership
	// routing (unreplicated block, or the mode routes reads in the NIC).
	ReadRoute(b gas.BlockID) (target int, ok bool)

	// Directory, Cache, and Tombstones expose the underlying agas
	// structures. Every space keeps a Directory: the home directory, and
	// the owner-side replica directory even when ownership itself is
	// static. Cache and Tombstones are nil where the strategy has none.
	Directory() *agas.Directory
	Cache() *agas.SWCache
	Tombstones() *agas.Tombstones
}

// spaceBuilder is what a World needs to instantiate one address space:
// its capability descriptor and the per-locality factory.
type spaceBuilder struct {
	caps     Caps
	newLocal func(*Locality) AddressSpace
}

// spaceBuilderFor is the single Mode-dispatch point in the runtime. All
// other protocol code consults the AddressSpace it produces.
func spaceBuilderFor(m Mode) (spaceBuilder, error) {
	switch m {
	case PGAS:
		return pgasBuilder(), nil
	case AGASSW:
		return swBuilder(), nil
	case AGASNM:
		return nmBuilder(), nil
	}
	return spaceBuilder{}, fmt.Errorf("runtime: no address space for mode %v", m)
}

// SpaceSpec pairs a Mode with its address space's capability
// descriptor, so callers can enumerate and select translation
// strategies — and gate on what each can do — without switching on the
// Mode enum.
type SpaceSpec struct {
	Mode Mode
	Caps Caps
}

func (s SpaceSpec) String() string { return s.Caps.Name }

// SpaceFor returns the spec for m. It panics on an unknown mode (specs
// exist exactly for the modes NewWorld accepts).
func SpaceFor(m Mode) SpaceSpec {
	bld, err := spaceBuilderFor(m)
	if err != nil {
		panic(err)
	}
	return SpaceSpec{Mode: m, Caps: bld.caps}
}

// Spaces returns every built-in address space in canonical sweep order
// (the column/row order used by the experiment tables).
func Spaces() []SpaceSpec {
	out := make([]SpaceSpec, 0, int(AGASNM)+1)
	for m := PGAS; m <= AGASNM; m++ {
		out = append(out, SpaceFor(m))
	}
	return out
}

// NewWorldFor builds a world running spec's address space; cfg.Mode is
// overridden by the spec.
func NewWorldFor(spec SpaceSpec, cfg Config) (*World, error) {
	cfg.Mode = spec.Mode
	return NewWorld(cfg)
}
