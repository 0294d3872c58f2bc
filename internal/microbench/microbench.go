// Package microbench holds the wall-clock microbenchmark bodies for the
// runtime's own fast paths, shared between the `go test -bench` harness
// (bench_test.go) and the repository benchmark's per-layer probes so both
// report the exact same workloads. Each body follows testing.B
// conventions and can be driven by testing.Benchmark from a plain binary.
package microbench

import (
	"sync/atomic"
	"testing"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/runtime"
	"nmvgas/vgas"
)

// reportLatency surfaces one latency summary as custom benchmark metrics
// so testing.Benchmark callers see the percentiles next to ns/op.
func reportLatency(b *testing.B, l runtime.LatencySummary) {
	if l.Count == 0 {
		return
	}
	b.ReportMetric(float64(l.P50Ns), "p50_ns")
	b.ReportMetric(float64(l.P95Ns), "p95_ns")
	b.ReportMetric(float64(l.P99Ns), "p99_ns")
}

// GoEnginePump is the send→deliver pump on the goroutine engine: rank 0
// fires b.N no-continuation parcels at a block on rank 1 and waits for
// the last to execute. It measures the whole fast path — SendParcel,
// source translation, transport delivery, the destination actor's
// mailbox, and action dispatch — as wall-clock msgs/sec and allocs/op.
func GoEnginePump(b *testing.B) { goEnginePump(b, false) }

// GoEnginePumpMetrics is the same pump with Config.Metrics on, so its
// ns/op and allocs/op expose the enabled-path cost directly against
// GoEnginePump's, and the runtime's send→exec latency percentiles ride
// along as p50_ns/p95_ns/p99_ns.
func GoEnginePumpMetrics(b *testing.B) { goEnginePump(b, true) }

func goEnginePump(b *testing.B, metrics bool) {
	w, err := vgas.NewWorld(vgas.Config{
		Ranks: 2, Mode: vgas.AGASNM, Engine: vgas.EngineGo, Metrics: metrics,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Stop()
	var ran atomic.Int64
	done := make(chan struct{})
	target := int64(b.N)
	count := w.Register("count", func(c *runtime.Ctx) {
		if ran.Add(1) == target {
			close(done)
		}
	})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := lay.BlockAt(0)
	p := w.Proc(0)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		p.Invoke(g, count, nil)
	}
	<-done
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "msgs/sec")
	if metrics {
		reportLatency(b, w.Stats().Latencies.ParcelExec)
	}
}

// putWorld builds the standard 2-rank one-sided benchmark world: a
// 4 KiB block resident on rank 1, driven from rank 0.
func putWorld(b *testing.B, eng vgas.EngineKind, metrics bool) (*vgas.World, gas.GVA) {
	w, err := vgas.NewWorld(vgas.Config{Ranks: 2, Mode: vgas.AGASNM, Engine: eng, Metrics: metrics})
	if err != nil {
		b.Fatal(err)
	}
	w.Start()
	lay, err := w.AllocLocal(1, 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	return w, lay.BlockAt(0)
}

// enginePut measures one blocking put round trip (send path + completion)
// per iteration on the given engine.
func enginePut(b *testing.B, eng vgas.EngineKind, metrics bool) {
	w, g := putWorld(b, eng, metrics)
	defer w.Stop()
	buf := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Proc(0).PutWait(g, buf)
	}
	b.StopTimer()
	if metrics {
		reportLatency(b, w.Stats().Latencies.PutDone)
	}
}

// GoEnginePut is the wall-clock one-sided put throughput on the
// goroutine engine: the driver pipelines b.N 64 B puts through a bounded
// in-flight window (so wire buffers stay pooled) and waits for the last
// coalesced ack. msgs/sec is the headline; allocs/op covers the whole
// issue→DMA→ack path.
func GoEnginePut(b *testing.B) {
	w, g := putWorld(b, vgas.EngineGo, false)
	defer w.Stop()
	const window = 1024
	tokens := make(chan struct{}, window)
	done := make(chan struct{})
	var acked atomic.Int64
	target := int64(b.N)
	cb := func() {
		<-tokens
		if acked.Add(1) == target {
			close(done)
		}
	}
	p := w.Proc(0)
	buf := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		tokens <- struct{}{}
		p.PutAsync(g, buf, cb)
	}
	<-done
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "msgs/sec")
}

// GoEngineGet is the wall-clock one-sided get round trip on the
// goroutine engine. GetWaitInto reuses the caller's buffer and the reply
// rides a pooled wire buffer, so the steady state allocates nothing per
// op.
func GoEngineGet(b *testing.B) {
	w, g := putWorld(b, vgas.EngineGo, false)
	defer w.Stop()
	p := w.Proc(0)
	buf := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		p.GetWaitInto(g, buf)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "msgs/sec")
}

// GoEnginePutVec writes 8 scattered 64 B fragments per iteration as one
// wire message with one ack.
func GoEnginePutVec(b *testing.B) {
	w, g := putWorld(b, vgas.EngineGo, false)
	defer w.Stop()
	p := w.Proc(0)
	frag := make([]byte, 64)
	segs := make([]vgas.PutSeg, 8)
	for i := range segs {
		segs[i] = vgas.PutSeg{Off: uint32(i * 512), Data: frag}
	}
	b.SetBytes(8 * 64)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		p.PutVecWait(g, segs)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "msgs/sec")
}

// GoEngineGetVec gathers 8 scattered 64 B fragments per iteration as one
// request with one reply.
func GoEngineGetVec(b *testing.B) {
	w, g := putWorld(b, vgas.EngineGo, false)
	defer w.Stop()
	p := w.Proc(0)
	segs := make([]vgas.GetSeg, 8)
	for i := range segs {
		segs[i] = vgas.GetSeg{Off: uint32(i * 512), N: 64}
	}
	buf := make([]byte, 8*64)
	b.SetBytes(8 * 64)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		p.GetVecWaitInto(g, segs, buf)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "msgs/sec")
}

// GoEngineCoalesce is the pump workload with parcel coalescing on: b.N
// no-continuation parcels flow through 16-deep per-destination batches
// that the receiving side scatters, measuring the batched fast path end
// to end.
func GoEngineCoalesce(b *testing.B) {
	w, err := vgas.NewWorld(vgas.Config{
		Ranks:    2,
		Mode:     vgas.AGASNM,
		Engine:   vgas.EngineGo,
		Coalesce: vgas.CoalesceConfig{MaxParcels: 16},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Stop()
	var ran atomic.Int64
	done := make(chan struct{})
	target := int64(b.N)
	count := w.Register("count", func(c *runtime.Ctx) {
		if ran.Add(1) == target {
			close(done)
		}
	})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := lay.BlockAt(0)
	p := w.Proc(0)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		p.Invoke(g, count, nil)
	}
	w.Locality(0).FlushAll()
	<-done
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "msgs/sec")
}

// F16ReplicatedReads measures the replica-hit read fast path on the
// goroutine engine: a 4 KiB block owned by rank 1 is live-replicated to
// every other rank, so rank 0's blocking reads resolve against its own
// fresh replica — no wire traffic, no owner involvement. With
// Config.Metrics on, the runtime's get-completion percentiles ride along
// as p50_ns/p95_ns/p99_ns; compare ns/op against GoEngineGet to see the
// round trip replication removes.
func F16ReplicatedReads(b *testing.B) {
	w, err := vgas.NewWorld(vgas.Config{
		Ranks: 4, Mode: vgas.AGASNM, Engine: vgas.EngineGo, Metrics: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Stop()
	w.Start()
	lay, err := w.AllocLocal(1, 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.ReplicateLive(lay, 3); err != nil {
		b.Fatal(err)
	}
	g := lay.BlockAt(0)
	p := w.Proc(0)
	buf := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		p.GetWaitInto(g, buf)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "msgs/sec")
	reportLatency(b, w.Stats().Latencies.GetDone)
}

// DESEnginePut is the wall-clock cost of one simulated put round trip on
// the DES engine (event-queue overhead plus protocol handlers; simulated
// time is free).
func DESEnginePut(b *testing.B) { enginePut(b, vgas.EngineDES, false) }

// DESEnginePutMetrics is DESEnginePut with Config.Metrics on; the
// simulated put-completion percentiles ride along as p50_ns/p95_ns/
// p99_ns, and the ns/op delta against DESEnginePut is the enabled-path
// cost.
func DESEnginePutMetrics(b *testing.B) { enginePut(b, vgas.EngineDES, true) }

// DESEngineEvents measures raw event schedule+dispatch cost on the
// 4-ary flat-heap engine.
func DESEngineEvents(b *testing.B) {
	b.ReportAllocs()
	eng := netsim.NewEngine()
	n := 0
	var pump func()
	pump = func() {
		n++
		if n < b.N {
			eng.After(1, pump)
		}
	}
	eng.After(1, pump)
	eng.Run()
	if n < b.N {
		b.Fatal("engine starved")
	}
}
