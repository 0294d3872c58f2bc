// Package bench holds the benchmark harness: one testing.B benchmark per
// table and figure of the reconstructed evaluation (regenerating the
// experiment on the deterministic simulator and reporting its headline
// number as a custom metric), the ablation benches DESIGN.md §5 calls
// out, and wall-clock microbenchmarks of the software substrates
// themselves.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
package bench

import (
	"strconv"
	"strings"
	"testing"

	"nmvgas/internal/exp"
	"nmvgas/internal/gas"
	"nmvgas/internal/microbench"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
	"nmvgas/internal/workloads"
	"nmvgas/vgas"
)

// benchOpts keeps experiment iterations small enough for testing.B.
func benchOpts() exp.Options { return exp.Options{Quick: true, Seed: 42} }

// runExperiment executes one registered experiment per iteration and
// reports the numeric value of the given (row, col) cell as metric.
func runExperiment(b *testing.B, id string, row, col int, metric string) {
	e, ok := exp.Find(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var last float64
	for i := 0; i < b.N; i++ {
		tb := e.Run(benchOpts())
		cellStr := strings.TrimSuffix(tb.Rows()[row][col], "x")
		v, err := strconv.ParseFloat(cellStr, 64)
		if err != nil {
			b.Fatalf("%s cell (%d,%d) = %q: %v", id, row, col, cellStr, err)
		}
		last = v
	}
	b.ReportMetric(last, metric)
}

// ---------------------------------------------------------------------
// One benchmark per table / figure (headline cell as custom metric).

func BenchmarkT1PutLatency(b *testing.B) { runExperiment(b, "T1", 0, 3, "nm_us_8B") }
func BenchmarkT2GetLatency(b *testing.B) { runExperiment(b, "T2", 0, 3, "nm_us_8B") }
func BenchmarkF1PutThroughput(b *testing.B) {
	runExperiment(b, "F1", 2, 3, "nm_MBs_large")
}
func BenchmarkF2ParcelRTT(b *testing.B)   { runExperiment(b, "F2", 0, 3, "nm_rtt_us_8B") }
func BenchmarkF3Translation(b *testing.B) { runExperiment(b, "F3", 0, 1, "nm_hit_rate_fit") }
func BenchmarkF4Migration(b *testing.B)   { runExperiment(b, "F4", 0, 2, "nm_migrate_us_256B") }
func BenchmarkF5GUPS(b *testing.B)        { runExperiment(b, "F5", 0, 3, "nm_Kups_2ranks") }
func BenchmarkF6Chase(b *testing.B)       { runExperiment(b, "F6", 2, 3, "nm_consolidation_x") }
func BenchmarkF7BFS(b *testing.B)         { runExperiment(b, "F7", 2, 2, "nm_rebalanced_KTEPS") }
func BenchmarkF8Stencil(b *testing.B)     { runExperiment(b, "F8", 2, 3, "nm_adaptive_x") }
func BenchmarkF9Churn(b *testing.B)       { runExperiment(b, "F9", 1, 3, "nm_Kops_under_churn") }
func BenchmarkF10Histogram(b *testing.B)  { runExperiment(b, "F10", 2, 2, "nm_placed_Kops") }
func BenchmarkT3Scaling(b *testing.B)     { runExperiment(b, "T3", 0, 3, "nm_put_us_2ranks") }
func BenchmarkT4Breakdown(b *testing.B)   { runExperiment(b, "T4", 2, 5, "nm_oneway_ns") }
func BenchmarkT5AllToAll(b *testing.B)    { runExperiment(b, "T5", 0, 3, "nm_MBs_small") }
func BenchmarkF11SSSP(b *testing.B)       { runExperiment(b, "F11", 2, 1, "nm_cyclic_ms") }
func BenchmarkF12Topology(b *testing.B)   { runExperiment(b, "F12", 0, 3, "nm_interpod_put_us") }
func BenchmarkF13Coalesce(b *testing.B)   { runExperiment(b, "F13", 1, 1, "coal4_Kups") }
func BenchmarkF14Replication(b *testing.B) {
	runExperiment(b, "F14", 2, 3, "nm_replication_x")
}

// Ablations (DESIGN.md §5).

func BenchmarkAblationForwarding(b *testing.B)   { runExperiment(b, "A1", 0, 1, "fwd_first_us") }
func BenchmarkAblationUpdatePolicy(b *testing.B) { runExperiment(b, "A2", 1, 2, "bcast_ctrl_msgs") }

// BenchmarkAblationEngines compares the same GUPS run on the two
// execution engines: the DES engine's wall-clock cost per simulated
// update vs the goroutine engine's real concurrent throughput.
func BenchmarkAblationEngines(b *testing.B) {
	for _, eng := range []runtime.EngineKind{runtime.EngineDES, runtime.EngineGo} {
		b.Run(eng.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := vgas.NewWorld(vgas.Config{Ranks: 4, Mode: vgas.AGASNM, Engine: eng})
				if err != nil {
					b.Fatal(err)
				}
				g := workloads.NewGUPS(w, "gups")
				w.Start()
				if err := g.Setup(512, 16, workloads.KeysUniform, 1); err != nil {
					b.Fatal(err)
				}
				if _, err := g.Run(100, 8); err != nil {
					b.Fatal(err)
				}
				w.Stop()
			}
		})
	}
}

// ---------------------------------------------------------------------
// Wall-clock microbenchmarks of the substrates.

func BenchmarkGVAEncodeDecode(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		g := gas.New(i&gas.MaxHome, gas.BlockID(i), uint32(i)&(gas.MaxBlockSize-1))
		sink += g.Home() + int(g.Block()) + int(g.Offset())
	}
	_ = sink
}

func BenchmarkParcelEncode(b *testing.B) {
	p := &parcel.Parcel{Action: 3, Target: gas.New(1, 2, 3), Payload: make([]byte, 64)}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = parcel.AppendEncode(buf[:0], p)
	}
}

func BenchmarkParcelDecode(b *testing.B) {
	enc := parcel.Encode(&parcel.Parcel{Action: 3, Target: gas.New(1, 2, 3), Payload: make([]byte, 64)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parcel.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransTableLookup(b *testing.B) {
	tt := netsim.NewTransTable(1024)
	for i := 0; i < 1024; i++ {
		tt.Update(gas.BlockID(i), i%8)
	}
	for i := 0; i < b.N; i++ {
		tt.Lookup(gas.BlockID(i % 1024))
	}
}

func BenchmarkTransTableUpdateWithEviction(b *testing.B) {
	tt := netsim.NewTransTable(256)
	for i := 0; i < b.N; i++ {
		tt.Update(gas.BlockID(i%4096), i%8)
	}
}

func BenchmarkDESEngineEventThroughput(b *testing.B) { microbench.DESEngineEvents(b) }

// The wall-clock fast-path microbenchmarks live in internal/microbench,
// shared with the repository benchmark's per-layer probes so `go test
// -bench` and benchmark/ report the exact same workloads.

// BenchmarkGoEnginePutThroughput measures real concurrent one-sided
// throughput on the goroutine engine (wall clock, not simulated): puts
// are pipelined through a bounded window over pooled wire buffers.
func BenchmarkGoEnginePutThroughput(b *testing.B) { microbench.GoEnginePut(b) }

// BenchmarkGoEngineGetThroughput is the blocking get round trip with a
// pooled reply buffer.
func BenchmarkGoEngineGetThroughput(b *testing.B) { microbench.GoEngineGet(b) }

// BenchmarkGoEnginePutVecThroughput writes 8 scattered fragments per op
// as one wire message with one ack.
func BenchmarkGoEnginePutVecThroughput(b *testing.B) { microbench.GoEnginePutVec(b) }

// BenchmarkGoEngineGetVecThroughput gathers 8 scattered fragments per op
// as one request/reply pair.
func BenchmarkGoEngineGetVecThroughput(b *testing.B) { microbench.GoEngineGetVec(b) }

// BenchmarkGoEngineCoalesceThroughput is the pump workload through
// 16-deep coalesced batches split by the receiving NIC path.
func BenchmarkGoEngineCoalesceThroughput(b *testing.B) { microbench.GoEngineCoalesce(b) }

// BenchmarkF16ReplicatedReads is the replica-hit read fast path: blocking
// reads of a remote-owned block served from a local live replica, with
// the runtime's get-completion percentiles as p50_ns/p95_ns/p99_ns.
func BenchmarkF16ReplicatedReads(b *testing.B) { microbench.F16ReplicatedReads(b) }

// BenchmarkGoEnginePumpThroughput is the send→deliver pump workload on
// the goroutine engine (msgs/sec and allocs/op for the whole fast path).
func BenchmarkGoEnginePumpThroughput(b *testing.B) { microbench.GoEnginePump(b) }

// BenchmarkDESEnginePutThroughput measures the wall-clock cost of one
// simulated put round trip on the DES engine.
func BenchmarkDESEnginePutThroughput(b *testing.B) { microbench.DESEnginePut(b) }

// BenchmarkGoEnginePumpMetricsThroughput is the pump with Config.Metrics
// on: compare its ns/op and allocs/op against GoEnginePumpThroughput to
// see the enabled-path observability cost; the runtime's send→exec
// percentiles are reported as p50_ns/p95_ns/p99_ns.
func BenchmarkGoEnginePumpMetricsThroughput(b *testing.B) { microbench.GoEnginePumpMetrics(b) }

// BenchmarkDESEnginePutMetricsThroughput is the simulated put round trip
// with Config.Metrics on, reporting the put-completion percentiles.
func BenchmarkDESEnginePutMetricsThroughput(b *testing.B) { microbench.DESEnginePutMetrics(b) }
