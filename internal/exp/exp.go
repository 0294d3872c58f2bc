// Package exp is the experiment harness: one driver per table and figure
// of the reconstructed evaluation (see DESIGN.md §4 for the index and
// EXPERIMENTS.md for expected-vs-measured). Every experiment runs on the
// deterministic discrete-event engine, so its numbers are exactly
// reproducible and immune to Go GC jitter.
package exp

import (
	"fmt"
	"sort"

	"nmvgas/internal/agas"
	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
	"nmvgas/internal/stats"
)

// Options tune experiment scale.
type Options struct {
	// Quick shrinks sweeps for CI and unit tests.
	Quick bool
	// Seed feeds the deterministic workload generators.
	Seed int64
	// Spaces restricts which address spaces row-per-mode experiments
	// sweep (nil = all built-ins). Experiments whose table columns are
	// fixed per mode always sweep every built-in space.
	Spaces []runtime.SpaceSpec
	// Faults, when enabled, is appended to the chaos experiment's fault
	// sweep as an extra operator-chosen plan, and its kill schedule picks
	// the recovery experiment's victim (vgasbench maps -faults here).
	Faults netsim.FaultPlan
	// Replicas, when > 0, replaces the replication experiment's default
	// replica-count sweep with {0, Replicas} (vgasbench maps -replicas
	// here); Validate holds it to what that world can hold.
	Replicas int
	// Coherence selects the replica coherence policy the replication
	// experiment runs under (vgasbench maps -coherence here).
	Coherence agas.Coherence
	// Localities replaces the scaling experiment's world-size sweep
	// (vgasbench maps -localities here). Nil = the experiment's default
	// sweep.
	Localities []int
	// ShardSweep replaces the scaling experiment's shard-count sweep
	// (vgasbench maps -shards here). Nil = default sweep; an explicit 0
	// selects the classic single-heap engine.
	ShardSweep []int
	// Topology is a netsim.ParseTopology spec the scaling experiment
	// builds its fabric from at each world size (vgasbench maps
	// -topology here). Empty = the experiment's default fat-tree.
	Topology string
	// TenantBlocks overrides the rebalancing experiment's blocks-per-
	// tenant (vgasbench maps -tenants here). 0 = the default (8).
	TenantBlocks int
	// Shifts is how many hotspot shifts the rebalancing experiment
	// applies, each followed by a full convergence window (vgasbench
	// maps -shift here). 0 = the default (1).
	Shifts int
	// MoveBudget overrides the rebalancing policy's per-epoch migration
	// budget (vgasbench maps -rebalance here). 0 = the default (16).
	MoveBudget int
	// FlightOut, when set, is a file path the health experiment writes
	// its flight-recorder trip bundle to (vgasbench maps -flight-out
	// here; CI uploads it as the health-smoke artifact).
	FlightOut string
}

// Validate refuses, before any world is built, an override an
// experiment's world cannot hold: a replica count outside [0, ranks-1]
// of the replication experiment's world, or a world size below 1.
func (o Options) Validate() error {
	if o.Replicas < 0 || o.Replicas > f16Ranks-1 {
		return fmt.Errorf("-replicas %d out of range [0,%d] for F16's %d-rank world", o.Replicas, f16Ranks-1, f16Ranks)
	}
	for _, n := range o.Localities {
		if n < 1 {
			return fmt.Errorf("-localities entry %d: a world holds at least 1 locality", n)
		}
	}
	return nil
}

// sweep returns the address spaces a row-per-mode experiment iterates.
func (o Options) sweep() []runtime.SpaceSpec {
	if len(o.Spaces) > 0 {
		return o.Spaces
	}
	return spaces
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) *stats.Table
}

// Registry lists every experiment in paper order. Filled by init
// functions across this package's files.
var Registry []Experiment

func register(id, title string, run func(Options) *stats.Table) {
	Registry = append(Registry, Experiment{ID: id, Title: title, Run: run})
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs in registration order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}

// spaces is the sweep order used in every table (the runtime's canonical
// address-space order).
var spaces = runtime.Spaces()

// newWorld builds a DES world running sp's address space.
func newWorld(sp runtime.SpaceSpec, ranks int, mutate ...func(*runtime.Config)) *runtime.World {
	cfg := runtime.Config{Ranks: ranks, Engine: runtime.EngineDES}
	for _, m := range mutate {
		m(&cfg)
	}
	w, err := runtime.NewWorldFor(sp, cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: world construction: %v", err))
	}
	return w
}

// withHeat turns on sampled access-heat tracking (unsampled, so small
// experiment worlds see exact counts) for runs that feed loadbal.
func withHeat(cfg *runtime.Config) {
	cfg.Heat = runtime.HeatConfig{Enabled: true}
}

// timeOp measures the simulated duration of one driver-visible operation.
func timeOp(w *runtime.World, op func() *runtime.LCORef) netsim.VTime {
	start := w.Now()
	w.MustWait(op())
	return w.Now() - start
}

// meanMicros averages a sample set in microseconds.
func meanMicros(samples []netsim.VTime) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum netsim.VTime
	for _, s := range samples {
		sum += s
	}
	return (sum / netsim.VTime(len(samples))).Micros()
}

// medianMicros returns the median in microseconds.
func medianMicros(samples []netsim.VTime) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]netsim.VTime(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2].Micros()
}

// sizesFor returns the message-size sweep.
func sizesFor(o Options) []int {
	if o.Quick {
		return []int{8, 512, 8192}
	}
	return []int{8, 64, 512, 4096, 16384, 65536}
}

// putStream issues n one-sided writes from rank `from`, keeping `window`
// outstanding, targets chosen by targetOf(seq). It returns the simulated
// makespan.
func putStream(w *runtime.World, from, n, window, size int, targetOf func(seq int) gas.GVA) netsim.VTime {
	gate := w.NewAndGate(from, 1)
	loc := w.Locality(from)
	buf := make([]byte, size)
	issued, completed := 0, 0
	var issue func()
	issue = func() {
		seq := issued
		issued++
		loc.PutAsync(targetOf(seq), buf, func() {
			completed++
			if issued < n {
				issue()
			} else if completed == n {
				loc.SendParcel(&parcel.Parcel{Action: runtime.ALCOSet, Target: gate.G})
			}
		})
	}
	start := w.Now()
	w.Proc(from).Run(func() {
		prime := window
		if prime > n {
			prime = n
		}
		for i := 0; i < prime; i++ {
			issue()
		}
	})
	w.MustWait(gate)
	return w.Now() - start
}
