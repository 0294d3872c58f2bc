// Package vgas is the public API of the network-managed virtual global
// address space runtime.
//
// # Overview
//
// A World is a set of localities connected by a network substrate. Memory
// is allocated in blocks named by 64-bit global virtual addresses (GVA);
// computation moves to data as parcels (active messages) that run
// registered actions at a block's current owner and synchronize through
// LCOs (futures, gates, reductions). Blocks can migrate between
// localities without changing their address — and the Mode selects who
// keeps the translation state that makes that work:
//
//   - PGAS: static arithmetic translation, no migration (baseline);
//   - AGASSW: software-managed AGAS — host-side caches and host
//     forwarding (baseline);
//   - AGASNM: network-managed AGAS — NIC-resident translation,
//     in-network forwarding, NIC table updates (the paper's system).
//
// # Mode selection
//
// Set Config.Mode directly, or work with address-space descriptors:
// Spaces() enumerates every built-in space with its capabilities,
// SpaceFor(mode) returns one descriptor, and NewWorldFor(spec, cfg)
// builds a world running it. ParseMode/ParseEngine turn the String()
// names ("pgas", "agas-sw", "agas-nm"; "des", "go") back into values for
// command-line flags. Gate mode-dependent behaviour on the Caps fields
// (Migration, NICTranslation, HostTranslation) instead of comparing Mode
// values; a Config with RequireMigration set is rejected by NewWorld
// when the selected space cannot move blocks.
//
// Two engines execute the same protocol code: EngineDES is a
// deterministic discrete-event simulation with a calibrated cost model
// (what the experiments use), and EngineGo runs localities as real
// goroutines.
//
// # Quickstart
//
//	w, _ := vgas.NewWorld(vgas.Config{Ranks: 4, Mode: vgas.AGASNM})
//	hello := w.Register("hello", func(c *vgas.Ctx) { c.Continue(c.P.Payload) })
//	w.Start()
//	lay, _ := w.AllocCyclic(0, 4096, 8)
//	fut := w.Proc(0).Call(lay.BlockAt(3), hello, []byte("hi"))
//	reply := w.MustWait(fut)
//
// See the examples/ directory for complete programs.
package vgas

import (
	"nmvgas/internal/agas"
	"nmvgas/internal/gas"
	"nmvgas/internal/lco"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
)

// Core world types.
type (
	// World is one running system of localities.
	World = runtime.World
	// Config configures NewWorld.
	Config = runtime.Config
	// Mode selects the address-space design.
	Mode = runtime.Mode
	// EngineKind selects discrete-event or goroutine execution.
	EngineKind = runtime.EngineKind
	// Ctx is the context handed to actions.
	Ctx = runtime.Ctx
	// Action is a parcel handler.
	Action = runtime.Action
	// Proc is a driver-side handle for issuing operations from a
	// locality.
	Proc = runtime.Proc
	// LCORef names an LCO in the global address space.
	LCORef = runtime.LCORef
	// Locality is one simulated compute node.
	Locality = runtime.Locality
	// AddressSpace is the per-locality translation strategy interface.
	AddressSpace = runtime.AddressSpace
	// Caps describes what an address space can do.
	Caps = runtime.Caps
	// SpaceSpec pairs a Mode with its address space's capabilities.
	SpaceSpec = runtime.SpaceSpec
)

// Address-space types.
type (
	// GVA is a 64-bit global virtual address.
	GVA = gas.GVA
	// BlockID is a globally unique block number.
	BlockID = gas.BlockID
	// Layout describes one allocation's distribution.
	Layout = gas.Layout
	// Dist selects a block distribution.
	Dist = gas.Dist
)

// Messaging types.
type (
	// Parcel is an active message.
	Parcel = parcel.Parcel
	// ActionID names a registered action.
	ActionID = parcel.ActionID
	// Combiner folds reduction contributions.
	Combiner = lco.Combiner
	// Model is the simulated fabric's cost model.
	Model = netsim.Model
	// VTime is simulated time in nanoseconds.
	VTime = netsim.VTime
	// Policy configures NIC behaviour in AGASNM mode.
	Policy = netsim.Policy
	// Topology selects the simulated fabric shape.
	Topology = netsim.Topology
	// CoalesceConfig enables parcel batching.
	CoalesceConfig = runtime.CoalesceConfig

	// HeatConfig enables sampled access-heat tracking (Config.Heat) for
	// the load-balancing policy engine.
	HeatConfig = runtime.HeatConfig
	// PutSeg is one fragment of a vectored put (Proc.PutVecWait).
	PutSeg = runtime.PutSeg
	// GetSeg is one fragment of a vectored get (Proc.GetVecWaitInto).
	GetSeg = runtime.GetSeg
	// TraceEvent is one observable protocol step (see World.SetTracer).
	TraceEvent = runtime.TraceEvent
	// TraceKind classifies trace events.
	TraceKind = runtime.TraceKind
	// WorldStats aggregates runtime counters.
	WorldStats = runtime.WorldStats
	// Coherence selects the replica coherence policy (Config.Coherence).
	Coherence = agas.Coherence
	// MemberState is one locality's lifecycle state in the membership
	// table (see World.MemberState, World.Kill, World.Retire, World.Join).
	MemberState = runtime.MemberState
	// MembershipStats reports the elastic-membership counters
	// (WorldStats.Membership).
	MembershipStats = runtime.MembershipStats
	// PulseConfig enables the runtime pulse (Config.Pulse): a periodic
	// in-runtime control tick driving watchdogs and OnPulse clients.
	PulseConfig = runtime.PulseConfig
	// PulseInfo is handed to OnPulse clients on each tick.
	PulseInfo = runtime.PulseInfo
	// WatchdogConfig tunes the invariant monitors evaluated each pulse
	// (PulseConfig.Watchdogs).
	WatchdogConfig = runtime.WatchdogConfig
	// WatchLevel is a watchdog's thresholded state (ok/warn/critical).
	WatchLevel = runtime.WatchLevel
	// WatchdogStatus is one monitor's state as of the last pulse.
	WatchdogStatus = runtime.WatchdogStatus
	// WatchdogEvent is delivered to OnWatchdogTrip callbacks when a
	// monitor escalates.
	WatchdogEvent = runtime.WatchdogEvent
	// HealthReport is the aggregated watchdog state (World.Health, and
	// the /healthz endpoint's JSON body).
	HealthReport = runtime.HealthReport
	// FaultPlan schedules message-level faults and whole-locality
	// kill/restart events on the fabric (Config.Faults).
	FaultPlan = netsim.FaultPlan
	// ReliabilityConfig tunes reliable delivery (Config.Reliability);
	// Force enables it even without a fault plan, which crash recovery
	// requires.
	ReliabilityConfig = runtime.ReliabilityConfig
)

// Replica coherence policies (see World.ReplicateLive).
const (
	// WriteInvalidate fans invalidations out to replica holders on every
	// master write; stale holders refill on demand (the default).
	WriteInvalidate = agas.WriteInvalidate
	// WriteUpdate pushes the written block's new contents to every holder.
	WriteUpdate = agas.WriteUpdate
	// RWLease skips per-write coherence traffic; holders re-validate when
	// their time-bounded lease (100 µs) expires.
	RWLease = agas.RWLease
)

// Modes.
const (
	PGAS   = runtime.PGAS
	AGASSW = runtime.AGASSW
	AGASNM = runtime.AGASNM
)

// Engines.
const (
	EngineDES = runtime.EngineDES
	EngineGo  = runtime.EngineGo
)

// Distributions.
const (
	DistLocal   = gas.DistLocal
	DistCyclic  = gas.DistCyclic
	DistBlocked = gas.DistBlocked
)

// Builtin actions.
const (
	// LCOSet delivers a payload into the LCO block it targets.
	LCOSet = runtime.ALCOSet
	// Nop does nothing (barriers, wiring).
	Nop = runtime.ANop
)

// Trace event kinds (see World.SetTracer and internal/trace).
const (
	TraceSend         = runtime.TraceSend
	TraceExec         = runtime.TraceExec
	TraceHostForward  = runtime.TraceHostForward
	TraceHostNack     = runtime.TraceHostNack
	TraceNICNack      = runtime.TraceNICNack
	TraceMigrateStart = runtime.TraceMigrateStart
	TraceMigrateDone  = runtime.TraceMigrateDone
	TraceQueued       = runtime.TraceQueued
)

// Migration status codes (decode a Migrate future with MigrateStatus).
const (
	MigrateOK        = runtime.MigrateOK
	MigratePinned    = runtime.MigratePinned
	MigrateBadTarget = runtime.MigrateBadTarget
)

// Watchdog levels (see World.Health and PulseConfig.Watchdogs).
const (
	WatchOK       = runtime.WatchOK
	WatchWarn     = runtime.WatchWarn
	WatchCritical = runtime.WatchCritical
)

// Watchdog catalog names (WatchdogStatus.Name, metric labels).
const (
	WatchQueueDepth     = runtime.WatchQueueDepth
	WatchRetransStorm   = runtime.WatchRetransStorm
	WatchUnackedBacklog = runtime.WatchUnackedBacklog
	WatchMemberDwell    = runtime.WatchMemberDwell
	WatchHeatImbalance  = runtime.WatchHeatImbalance
	WatchMigrationStall = runtime.WatchMigrationStall
)

// Membership lifecycle states (see World.MemberState).
const (
	MemberAlive    = runtime.MemberAlive
	MemberSuspect  = runtime.MemberSuspect
	MemberDraining = runtime.MemberDraining
	MemberDead     = runtime.MemberDead
	MemberJoining  = runtime.MemberJoining
)

// NewWorld builds a world; see Config.
func NewWorld(cfg Config) (*World, error) { return runtime.NewWorld(cfg) }

// NewWorldFor builds a world running spec's address space (cfg.Mode is
// overridden by the spec).
func NewWorldFor(spec SpaceSpec, cfg Config) (*World, error) {
	return runtime.NewWorldFor(spec, cfg)
}

// Spaces enumerates every built-in address space in canonical order.
func Spaces() []SpaceSpec { return runtime.Spaces() }

// SpaceFor returns the address-space descriptor for m.
func SpaceFor(m Mode) SpaceSpec { return runtime.SpaceFor(m) }

// ParseMode parses a Mode.String name ("pgas", "agas-sw", "agas-nm").
func ParseMode(s string) (Mode, error) { return runtime.ParseMode(s) }

// ParseEngine parses an EngineKind.String name ("des", "go").
func ParseEngine(s string) (EngineKind, error) { return runtime.ParseEngine(s) }

// ParseCoherence parses a Coherence.String name ("write-invalidate",
// "write-update", "rw-lease").
func ParseCoherence(s string) (Coherence, error) { return agas.ParseCoherence(s) }

// ParseFaultPlan parses a compact fault-plan spec such as
// "drop=0.05,kill=1:50000,restart=1:60000000" (see netsim.ParseFaultPlan).
func ParseFaultPlan(s string) (FaultPlan, error) { return netsim.ParseFaultPlan(s) }

// MigrateStatus decodes a Migrate future's value.
func MigrateStatus(v []byte) int64 { return runtime.MigrateStatus(v) }

// DefaultModel returns the calibrated fabric cost model.
func DefaultModel() Model { return netsim.DefaultModel() }

// Reduction combiners over little-endian int64 records.
var (
	SumI64 = lco.SumI64
	MinI64 = lco.MinI64
	MaxI64 = lco.MaxI64
)

// EncodeI64 builds the 8-byte record the int64 combiners consume.
func EncodeI64(v int64) []byte { return lco.EncodeI64(v) }

// DecodeI64 parses an 8-byte little-endian record.
func DecodeI64(b []byte) int64 { return lco.DecodeI64(b) }

// EncodeLayout serializes a layout for transport through an LCO (the
// AllocAsync result format).
func EncodeLayout(l Layout) []byte { return runtime.EncodeLayout(l) }

// DecodeLayout parses an EncodeLayout record.
func DecodeLayout(b []byte) Layout { return runtime.DecodeLayout(b) }

// NewTwoTier builds an oversubscribed two-tier topology (pods of podSize
// behind an oversub× spine).
func NewTwoTier(podSize int, oversub float64) Topology {
	return netsim.NewTwoTier(podSize, oversub)
}

// NewFatTree builds a hierarchical fat-tree: leaves of leafSize ranks,
// podLeaves leaves per pod, with per-level oversubscription (edge at the
// aggregation hop, edge×core across the core). Hop distances are 1
// (intra-leaf), 3 (intra-pod), and 5 (inter-pod).
func NewFatTree(leafSize, podLeaves int, edgeOversub, coreOversub float64) Topology {
	return netsim.NewFatTree(leafSize, podLeaves, edgeOversub, coreOversub)
}

// NewDragonfly builds a dragonfly: all-to-all groups of groupSize ranks
// joined by globalOversub×-tapered global links. Hop distances are 1
// (intra-group) and 3 (inter-group).
func NewDragonfly(groupSize int, globalOversub float64) Topology {
	return netsim.NewDragonfly(groupSize, globalOversub)
}

// ParseTopology builds a fabric for the given rank count from a spec
// string: "crossbar", "two-tier[:pod=N,oversub=F]",
// "fat-tree[:leaf=N,pod=N,oversub=F]", or "dragonfly[:group=N,oversub=F]"
// (omitted parameters default to balanced √ranks-sized groupings). Use
// the result as Config.Topology.
func ParseTopology(spec string, ranks int) (Topology, error) {
	return netsim.ParseTopology(spec, ranks)
}
