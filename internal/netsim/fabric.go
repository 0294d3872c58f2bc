package netsim

import (
	"fmt"

	"nmvgas/internal/gas"
)

// FabricConfig configures a fabric build.
type FabricConfig struct {
	Ranks int
	Model Model
	// GVARouting enables NIC-side translation on every NIC (the
	// network-managed mode).
	GVARouting bool
	// Policy applies to all NICs when GVARouting is on.
	Policy Policy
	// NICTableCap bounds each NIC's translation table (0 = unbounded).
	// The paper's NIC tables are finite; the capacity cliff is part of
	// the evaluation.
	NICTableCap int
	// Topology defaults to Crossbar when nil.
	Topology Topology
	// Faults injects seeded delivery faults into every link; the zero
	// plan is a perfect network.
	Faults FaultPlan
}

// Liveness lets the runtime's membership layer tell a NIC which
// localities are reachable (NICCore.Live, each NIC its own rank's view).
// Down is the ground truth at the fabric boundary (the link is dead,
// whether or not anyone has noticed); DeadHint is the runtime's declared
// belief, which upgrades silent loss into a clean NACK-with-hint. Nil
// means every locality is up forever.
type Liveness interface {
	// Down reports whether rank's link is down (crashed, possibly not
	// yet declared dead). Traffic to or from a down rank is swallowed.
	Down(rank int) bool
	// DeadHint reports whether rank has been declared dead by the
	// membership layer, and the surrogate/home rank to redirect to.
	DeadHint(rank int) (hint int, dead bool)
	// Rehome returns the recovered owner of a block whose previous owner
	// died (a promoted replica master or a re-homed directory entry),
	// letting in-flight traffic redirect at the NIC instead of bouncing.
	Rehome(b gas.BlockID) (owner int, ok bool)
}

// Fabric is a full-crossbar network of NICs driven by one discrete-event
// engine: every pair of localities is directly connected, with per-NIC
// transmit occupancy and a uniform per-hop wire latency.
type Fabric struct {
	Eng   *Engine
	Model Model
	Topo  Topology
	NICs  []*NIC
	// Faults is nil on a perfect fabric.
	Faults *FaultInjector
}

// NewFabric builds a fabric with cfg.Ranks NICs on the given engine.
func NewFabric(eng *Engine, cfg FabricConfig) *Fabric {
	if cfg.Ranks <= 0 {
		panic(fmt.Sprintf("netsim: fabric with %d ranks", cfg.Ranks))
	}
	topo := cfg.Topology
	if topo == nil {
		topo = Crossbar{}
	}
	f := &Fabric{
		Eng:    eng,
		Model:  cfg.Model,
		Topo:   topo,
		NICs:   make([]*NIC, cfg.Ranks),
		Faults: NewFaultInjector(cfg.Faults),
	}
	for r := range f.NICs {
		fi := f.Faults
		if eng.par != nil {
			// Each NIC draws from its own seeded stream so its fault
			// schedule depends only on its own (shard-count-invariant)
			// transmit order, not the global interleaving of all NICs.
			fi = f.Faults.Fork(r)
		}
		re := eng.RankEngine(r)
		f.NICs[r] = &NIC{
			NICCore:    NICCore{Rank: r, GVARouting: cfg.GVARouting, Policy: cfg.Policy, Free: &re.Free},
			TransState: NewTransState(cfg.NICTableCap),
			fab:        f,
			eng:        re,
			fi:         fi,
		}
	}
	return f
}

// FaultSnapshot sums injected-fault counters fabric-wide: the shared
// injector's on a classic engine, the per-NIC forks' under sharding.
func (f *Fabric) FaultSnapshot() FaultStats {
	if f.Faults == nil {
		return FaultStats{}
	}
	if f.Eng.par == nil {
		return f.Faults.Snapshot()
	}
	var t FaultStats
	for _, n := range f.NICs {
		t.add(n.fi.Snapshot())
	}
	return t
}

// NIC returns the interface of the given rank.
func (f *Fabric) NIC(rank int) *NIC { return f.NICs[rank] }

// The transport face of the runtime's engine port (the goroutine
// transport implements the same set). Send injects m at rank from's NIC.
// State runs fn on rank's translation state: a simulated NIC has one, and
// its rank's event context is the exclusion. Stats returns rank's NIC
// counters. Defer runs fn as rank's own event at the current simulated
// instant: after the running event finishes, before time advances.
func (f *Fabric) Send(from int, m *Message)            { f.NICs[from].Send(m) }
func (f *Fabric) State(rank int, fn func(*TransState)) { fn(&f.NICs[rank].TransState) }
func (f *Fabric) Stats(rank int) NICStats              { return f.NICs[rank].Stats }
func (f *Fabric) Defer(rank int, fn func())            { f.NICs[rank].eng.AfterRank(rank, 0, fn) }
