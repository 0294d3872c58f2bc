// Package runtime is the message-driven runtime that ties the substrates
// together: localities executing registered actions on parcel arrival,
// LCO-based continuations, one-sided memory operations, global allocation,
// and live block migration — over three address-space modes (static PGAS,
// software-managed AGAS, network-managed AGAS) and two execution engines
// (deterministic discrete-event simulation, and real goroutines).
package runtime

import (
	"fmt"

	"nmvgas/internal/agas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/nmagas"
)

// Mode selects how global addresses are translated to owners.
type Mode uint8

const (
	// PGAS is static arithmetic translation; blocks cannot migrate.
	PGAS Mode = iota
	// AGASSW is software-managed AGAS: host-side caches, host forwarding,
	// host repair of stale one-sided operations.
	AGASSW
	// AGASNM is the paper's network-managed AGAS: NIC-resident
	// translation, in-network forwarding, NIC table updates.
	AGASNM
)

func (m Mode) String() string {
	switch m {
	case PGAS:
		return "pgas"
	case AGASSW:
		return "agas-sw"
	case AGASNM:
		return "agas-nm"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// EngineKind selects the execution engine.
type EngineKind uint8

const (
	// EngineDES runs the whole world on one deterministic discrete-event
	// loop with simulated time; the experiment harness uses it because
	// Go's garbage collector cannot perturb simulated latencies.
	EngineDES EngineKind = iota
	// EngineGo runs one actor goroutine per locality with real
	// concurrency and no simulated costs.
	EngineGo
)

func (e EngineKind) String() string {
	if e == EngineGo {
		return "go"
	}
	return "des"
}

// ParseMode parses a mode name as produced by Mode.String, including the
// numeric "mode(N)" fallback form, so the two round-trip.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{PGAS, AGASSW, AGASNM} {
		if s == m.String() {
			return m, nil
		}
	}
	var d uint8
	if n, err := fmt.Sscanf(s, "mode(%d)", &d); n == 1 && err == nil {
		return Mode(d), nil
	}
	return 0, fmt.Errorf("runtime: unknown mode %q (want pgas, agas-sw, or agas-nm)", s)
}

// ParseEngine parses an engine name as produced by EngineKind.String.
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "des":
		return EngineDES, nil
	case "go":
		return EngineGo, nil
	}
	return 0, fmt.Errorf("runtime: unknown engine %q (want des or go)", s)
}

// Config configures a world.
type Config struct {
	// Ranks is the number of localities (>= 1).
	Ranks int
	// Mode selects the address-space design under test.
	Mode Mode
	// Engine selects DES or goroutine execution.
	Engine EngineKind
	// Model holds the DES cost model; zero value means DefaultModel.
	Model netsim.Model
	// Policy configures NIC behaviour in AGASNM mode; the zero value is
	// the paper's design (forward in network, push updates).
	Policy netsim.Policy
	// NICTableCap bounds the NIC translation table in AGASNM mode
	// (0 = unbounded). The software cache of AGASSW is always unbounded.
	NICTableCap int
	// SWCorrection selects the software cache's staleness policy.
	SWCorrection agas.CorrectionPolicy
	// NMUpdate selects how migrations propagate to NIC tables.
	NMUpdate nmagas.UpdatePolicy
	// Topology selects the simulated fabric topology (nil = crossbar).
	// Only meaningful under EngineDES.
	Topology netsim.Topology
	// Shards partitions ranks into parallel event shards under EngineDES.
	// 0 keeps the classic single-threaded engine; N >= 1 runs the
	// conservative-lookahead windowed engine with N shard workers
	// (clamped to Ranks). Same seed and workload produce bit-identical
	// results for every N >= 1 — shards only change wall-clock time.
	// Shards=1 is the windowed engine run sequentially, the reference the
	// equivalence suite pins N > 1 against, and what a world running the
	// reliability layer uses whatever N says (its exactly-once store is
	// world-scoped; see NewWorld). EngineGo ignores it.
	Shards int
	// Coalesce batches small parcels per destination when
	// Coalesce.MaxParcels > 1 (see CoalesceConfig).
	Coalesce CoalesceConfig
	// Seed feeds deterministic components (fault injection).
	Seed int64
	// Faults injects seeded delivery faults into the transport (both
	// engines); the zero plan is a perfect network. A zero Faults.Seed
	// inherits Seed, so one knob replays a whole faulty run.
	Faults netsim.FaultPlan
	// Reliability tunes the end-to-end reliable-delivery layer, which
	// activates automatically when Faults is nonzero (or Force is set).
	Reliability ReliabilityConfig
	// RequireMigration declares that the program will migrate blocks;
	// NewWorld rejects the config when the selected address space cannot.
	RequireMigration bool
	// Metrics enables runtime latency histograms (parcel send→exec,
	// one-sided completion, NACK repair, migration phases, coalescer
	// flush delay), surfaced by World.Latencies. Off by default; the
	// disabled path costs a single nil check and zero allocations.
	Metrics bool
	// Heat enables sampled per-block access-heat tracking for the load
	// balancer (see internal/loadbal). Like Metrics, the disabled path
	// costs a single nil check and zero allocations; the enabled path is
	// power-of-two sampled into per-rank fixed-size sketches, never an
	// unbounded map.
	Heat HeatConfig
	// Pulse enables the runtime pulse: a periodic in-runtime control tick
	// that drives watchdog evaluation and registered control loops (see
	// PulseConfig). Like Metrics and Heat, the disabled path is a nil
	// pointer and costs a single nil check.
	Pulse PulseConfig
	// Coherence selects how writes to a replicated block keep its replica
	// set coherent (see World.ReplicateLive): write-invalidate (default),
	// write-update, or RW leases (of length leaseNs).
	Coherence agas.Coherence
}

// goTimeScale is the EngineGo clock ratio: wall-clock nanoseconds per
// simulated nanosecond. The goroutine engine has no simulated clock, but
// fault-injected delays, reliability retransmit timers, coalescer flushes
// and pulse periods are specified in simulated netsim.VTime; this ratio
// converts them to real durations instead of a silent 1:1 cast.
const goTimeScale = 10

// leaseNs is the replica lease length on the latency clock under the
// RWLease coherence policy. Other policies renew leases on every fill, so
// it only bounds staleness under RWLease.
const leaseNs = 100_000

// normalized fills defaults and validates.
func (c Config) normalized() (Config, error) {
	if c.Ranks < 1 {
		return c, fmt.Errorf("runtime: config needs at least 1 rank, got %d", c.Ranks)
	}
	if c.Ranks > 1<<12 {
		return c, fmt.Errorf("runtime: %d ranks exceeds the GVA home field", c.Ranks)
	}
	if c.Mode > AGASNM {
		return c, fmt.Errorf("runtime: unknown mode %d", c.Mode)
	}
	if c.Model == (netsim.Model{}) {
		c.Model = netsim.DefaultModel()
	}
	if c.Faults.Seed == 0 {
		c.Faults.Seed = c.Seed
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("runtime: negative shard count %d", c.Shards)
	}
	if c.Shards > c.Ranks {
		c.Shards = c.Ranks
	}
	if err := c.Faults.Validate(c.Ranks); err != nil {
		return c, err
	}
	c.Reliability = c.Reliability.withDefaults()
	c.Heat = c.Heat.withDefaults()
	if c.Heat.SampleShift > 20 {
		return c, fmt.Errorf("runtime: heat sample shift %d too coarse (max 20)", c.Heat.SampleShift)
	}
	c.Pulse = c.Pulse.withDefaults()
	if c.Coherence > agas.RWLease {
		return c, fmt.Errorf("runtime: unknown coherence policy %d", c.Coherence)
	}
	return c, nil
}

// validate checks the config against the selected address space's
// capabilities (normalized has already run).
func (c Config) validate(caps Caps) error {
	if c.RequireMigration && !caps.Migration {
		return fmt.Errorf("runtime: config requires migration, but address space %q is static (blocks cannot move); pick a migrating mode such as agas-sw or agas-nm", caps.Name)
	}
	return nil
}
