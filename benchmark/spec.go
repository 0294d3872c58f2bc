package main

import (
	"encoding/json"
	"runtime"

	"nmvgas/vgas"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// Bound is the share of the parent's median an end-to-end metric may
// worsen by; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd lists what a user of the system sees. Every workload reports
// every row (see README.md for what the sim_* rows mean on the goroutine
// engine's workloads).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"sim_events_per_s", "1/s", "higher", 0.25},
	{"sim_us_per_op", "us", "lower", 0.03},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer rows, grouped by module. P = isolated
// probe, C = counter delta over the timed section, D = differential of two
// configurations, S = bench-side span (README.md has the table with the
// end-to-end metric each row should move).
var perLayer = []metricDef{
	// gas
	{"gas.gva_codec_ns", "ns", "lower", 0},
	{"gas.store_rw_ns", "ns", "lower", 0},
	// parcel
	{"parcel.encode_ns", "ns", "lower", 0},
	{"parcel.decode_ns", "ns", "lower", 0},
	{"parcel.decode_allocs", "count", "lower", 0},
	// netsim
	{"netsim.engine.event_ns", "ns", "lower", 0},
	{"netsim.engine.event_deep_ns", "ns", "lower", 0},
	{"netsim.engine.ns_per_event", "ns", "lower", 0},
	{"netsim.engine.unattributed_ns", "ns", "lower", 0},
	{"netsim.par.ns_per_event", "ns", "lower", 0},
	{"netsim.par.speedup_vs_classic", "ratio", "higher", 0},
	{"netsim.events_per_op", "count", "lower", 0},
	{"netsim.transtable.lookup_ns", "ns", "lower", 0},
	{"netsim.transtable.update_evict_ns", "ns", "lower", 0},
	{"netsim.nic.table_hit_ratio", "ratio", "higher", 0},
	{"netsim.nic.forwards_per_op", "count", "lower", 0},
	{"netsim.nic.nacks_per_op", "count", "lower", 0},
	{"netsim.nic.table_updates_per_migration", "count", "lower", 0},
	{"netsim.fabric.msgs_per_op", "count", "lower", 0},
	{"netsim.fabric.bytes_per_op", "count", "lower", 0},
	{"netsim.batch.scatter_record_ns", "ns", "lower", 0},
	{"netsim.faults.dropped_per_kmsg", "count", "lower", 0},
	{"netsim.faults.duplicated_per_kmsg", "count", "lower", 0},
	// runtime, goroutine engine
	{"runtime.go.pump_ns", "ns", "lower", 0},
	{"runtime.go.pump_allocs", "count", "lower", 0},
	{"runtime.go.put_ns", "ns", "lower", 0},
	{"runtime.go.putwait_ns", "ns", "lower", 0},
	{"runtime.go.get_ns", "ns", "lower", 0},
	{"runtime.go.get_allocs", "count", "lower", 0},
	{"runtime.go.putvec_ns", "ns", "lower", 0},
	{"runtime.go.getvec_ns", "ns", "lower", 0},
	{"runtime.go.local_get_ns", "ns", "lower", 0},
	{"runtime.go.transport_ns", "ns", "lower", 0},
	{"runtime.go.queue_depth_max", "count", "lower", 0},
	// runtime, DES handlers
	{"runtime.des.put_ns", "ns", "lower", 0},
	{"runtime.des.put_allocs", "count", "lower", 0},
	// runtime, optional subsystems
	{"runtime.coalesce.pump_ns", "ns", "lower", 0},
	{"runtime.coalesce.gain", "ratio", "higher", 0},
	{"runtime.reliable.forced_tax_pct", "%", "lower", 0},
	{"runtime.reliable.retransmits_per_kmsg", "count", "lower", 0},
	{"runtime.reliable.dups_suppressed_per_kmsg", "count", "lower", 0},
	{"runtime.reliable.unacked_at_end", "count", "lower", 0},
	{"runtime.reliable.chaos_slowdown", "ratio", "lower", 0},
	{"runtime.migrate.host_us", "us", "lower", 0},
	{"runtime.migrate.sim_us", "us", "lower", 0},
	{"runtime.migrate.count", "count", "higher", 0},
	{"runtime.replicate.local_read_ns", "ns", "lower", 0},
	{"runtime.hooks.metrics_tax_pct", "%", "lower", 0},
	{"runtime.hooks.heat_tax_pct", "%", "lower", 0},
	{"runtime.hooks.pulse_tax_pct", "%", "lower", 0},
	{"runtime.hooks.tracer_tax_pct", "%", "lower", 0},
	{"runtime.hooks.flight_tax_pct", "%", "lower", 0},
	{"runtime.hooks.all_on_tax_pct", "%", "lower", 0},
	{"runtime.world.start_ms_4", "ms", "lower", 0},
	{"runtime.world.start_ms_1024", "ms", "lower", 0},
	{"runtime.world.stats_snapshot_us", "us", "lower", 0},
	{"runtime.host_forwards_per_op", "count", "lower", 0},
	{"runtime.host_nacks_per_op", "count", "lower", 0},
	{"runtime.queued_per_op", "count", "lower", 0},
	{"runtime.local_run_ratio", "ratio", "higher", 0},
	// agas / pgas comparator modes
	{"agas.directory.resolve_ns", "ns", "lower", 0},
	{"agas.swcache.lookup_ns", "ns", "lower", 0},
	{"agas.tombstones.get_ns", "ns", "lower", 0},
	{"agas.sw_over_nm_sim_ratio", "ratio", "higher", 0},
	{"pgas.nm_over_pgas_sim_ratio", "ratio", "lower", 0},
	// lco
	{"lco.future_set_ns", "ns", "lower", 0},
	{"lco.andgate_set_ns", "ns", "lower", 0},
	// driver: the benchmark itself
	{"driver.fail_ratio", "ratio", "lower", 0},
	{"driver.sim_us_per_op_exact", "us", "lower", 0},
	{"driver.op_p99_us", "us", "lower", 0},
	{"driver.op_p999_us", "us", "lower", 0},
	{"driver.op_tail_us", "us", "lower", 0},
	{"driver.op_tail_pct", "%", "higher", 0},
	{"driver.op_samples", "count", "higher", 0},
	{"driver.get_p50_us", "us", "lower", 0},
	{"driver.put_p50_us", "us", "lower", 0},
	{"driver.vec_p50_us", "us", "lower", 0},
	{"driver.allocs_per_op", "count", "lower", 0},
	{"driver.alloc_bytes_per_op", "count", "lower", 0},
	{"driver.gc_cycles", "count", "lower", 0},
	{"driver.gc_pause_total_ms", "ms", "lower", 0},
	{"driver.peak_rss_mb", "MB", "lower", 0},
	{"driver.gen_share", "ratio", "lower", 0},
	{"driver.verify_s", "s", "lower", 0},
	{"driver.host_slowdown", "ratio", "lower", 0},
	{"driver.raw_ops_per_s", "1/s", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}

// app selects one of the two bench-owned applications.
type app uint8

const (
	appXor app = iota // xorupdate: windowed parcels with continuations
	appRMA            // rma: blocking one-sided operations
)

// workload is one named configuration. Every number here is an input the
// benchmark generates; nothing is read back from the program under test.
type workload struct {
	Name string
	Why  string
	App  app

	Engine   vgas.EngineKind
	Mode     vgas.Mode
	Ranks    int
	Shards   int // -1 = one shard per host processor
	Window   int // xorupdate: ops in flight per rank
	Blocks   uint32
	BSize    uint32
	Topo     string // "" = crossbar
	TableCap int
	Faults   vgas.FaultPlan

	// MigEvery paces churn by op count: xorupdate starts one migration
	// per MigEvery completed ops world-wide, rma one per MigEvery ops of
	// each client. 0 = no churn.
	MigEvery int

	// WarmOps is the fixed-size warm-up that ends set-up: enough for
	// caches, pools and NIC tables to fill. It is also the section
	// driver.sim_us_per_op_exact is measured over.
	WarmOps int

	// Twin names the DES configuration that supplies the sim_* metrics
	// of a goroutine-engine workload (nil on DES workloads, which supply
	// their own).
	Twin *workload
}

// shards resolves the Shards field against the host.
func (wl *workload) shards() int {
	if wl.Shards >= 0 {
		return wl.Shards
	}
	return runtime.GOMAXPROCS(0)
}

// goParcelsTwin and goRMATwin are the simulated counterparts of the two
// goroutine-engine workloads: same application, same generated op stream,
// EngineDES. They cost a fifth of the run and put the simulated price of
// the op mix, and the simulator's speed on it, beside the host numbers.
var goParcelsTwin = workload{
	Name: "go_parcels.des_twin", App: appXor,
	Engine: vgas.EngineDES, Mode: vgas.AGASNM, Ranks: 4, Window: 16,
	Blocks: 256, BSize: 1024, MigEvery: 4096, WarmOps: 20000,
}

var goRMATwin = workload{
	Name: "go_rma.des_twin", App: appRMA,
	Engine: vgas.EngineDES, Mode: vgas.AGASNM, Ranks: 4,
	Blocks: 64, BSize: 4096, MigEvery: 8192, WarmOps: 8000,
}

var workloads = []workload{
	{
		Name: "go_parcels",
		Why:  "goroutine engine under migration: send path, mailbox, chanNet, action dispatch and continuation do all the work; the DES heap and simulated NIC do none",
		App:  appXor, Engine: vgas.EngineGo, Mode: vgas.AGASNM, Ranks: 4, Window: 16,
		Blocks: 256, BSize: 1024, MigEvery: 4096, WarmOps: 400000, Twin: &goParcelsTwin,
	},
	{
		Name: "go_rma",
		Why:  "same transport used differently: blocking one-sided get/put/vec round trips, one outstanding per client, no parcels, actions or LCOs, so latency is the op's own",
		App:  appRMA, Engine: vgas.EngineGo, Mode: vgas.AGASNM, Ranks: 4,
		Blocks: 64, BSize: 4096, MigEvery: 8192, WarmOps: 100000, Twin: &goRMATwin,
	},
	{
		Name: "des_churn",
		Why:  "the paper's headline on the classic single-heap engine: a 32-entry NIC table that evicts while blocks migrate, so NIC receive/forward, TransTable and the event heap do most of the work",
		App:  appXor, Engine: vgas.EngineDES, Mode: vgas.AGASNM, Ranks: 16, Window: 16,
		Blocks: 256, BSize: 1024, TableCap: 32, MigEvery: 512, WarmOps: 100000,
	},
	{
		Name: "des_scale",
		Why:  "1024 ranks on a fat-tree under the sharded windowed engine, no churn, unbounded table: topology routing and per-rank state at scale; a NIC-protocol change predicts no move",
		App:  appXor, Engine: vgas.EngineDES, Mode: vgas.AGASNM, Ranks: 1024, Shards: -1, Window: 4,
		Blocks: 2048, BSize: 1024, Topo: "fat-tree", WarmOps: 100000,
	},
	{
		Name: "des_chaos",
		Why:  "1% drop, 1% duplicate and reordering: the reliability layer (seq/ack, retransmit, dedup) and the serial-window fallback do most of the work, and the XOR image checks exactly-once",
		App:  appXor, Engine: vgas.EngineDES, Mode: vgas.AGASNM, Ranks: 64, Shards: -1, Window: 16,
		Blocks: 64, BSize: 1024, Faults: vgas.FaultPlan{Drop: 0.01, Duplicate: 0.01, Reorder: true},
		WarmOps: 40000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runSeconds is how long one driver run measures.
const runSeconds = 15

// benchmarkFile mirrors BENCHMARK.json at the repository root. The file
// is generated from the tables above (-benchmark-json) and a test keeps
// the two equal.
type benchmarkFile struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []jsonNamed  `json:"workloads"`
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func benchmarkJSON() []byte {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, wl := range workloads {
		f.Workloads = append(f.Workloads, jsonNamed{wl.Name, wl.Why})
	}
	for _, m := range endToEnd {
		b := m.Bound
		f.EndToEnd = append(f.EndToEnd, jsonMetric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, jsonMetric{m.Name, m.Unit, m.Better, nil})
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}
