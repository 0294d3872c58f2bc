package metrics

import (
	"sync"
	"time"

	"nmvgas/internal/netsim"
	"nmvgas/internal/runtime"
)

// Sample is one point in the interval sampler's time series.
type Sample struct {
	// T is when the sample was taken: simulated ns under DES, wall ns
	// since NewSampler under the goroutine engine.
	T int64
	// ParcelsRun is the cumulative handler-execution count.
	ParcelsRun int64
	// Throughput is parcels executed per second of trace-clock time
	// since the previous sample (0 for the first).
	Throughput float64
	// QueueDepth is the summed per-rank backlog (World.QueueDepths:
	// mailbox length on the goroutine engine, pending events on DES).
	QueueDepth int64
	// NICTableEntries is the summed NIC-resident translation table size.
	NICTableEntries int64
}

// Sampler produces periodic throughput / queue-depth / NIC-table-size
// time series from a running world. Drive it with RunDES (simulated
// time), or call Sample directly at moments of interest.
type Sampler struct {
	w  *runtime.World
	mu sync.Mutex
	ss []Sample

	epoch time.Time
}

// NewSampler returns a sampler for w.
func NewSampler(w *runtime.World) *Sampler {
	return &Sampler{w: w, epoch: time.Now()}
}

func (s *Sampler) now() int64 {
	if s.w.Config().Engine == runtime.EngineDES {
		return int64(s.w.Now())
	}
	return int64(time.Since(s.epoch))
}

// Sample records one point now.
func (s *Sampler) Sample() Sample {
	var run, depth, table int64
	for r, d := range s.w.QueueDepths() {
		rs := s.w.RankStats(r)
		run += rs.Loc.ParcelsRun
		depth += int64(d)
		table += int64(rs.NICTable)
	}
	p := Sample{T: s.now(), ParcelsRun: run, QueueDepth: depth, NICTableEntries: table}
	s.mu.Lock()
	if n := len(s.ss); n > 0 {
		prev := s.ss[n-1]
		if dt := p.T - prev.T; dt > 0 {
			p.Throughput = float64(p.ParcelsRun-prev.ParcelsRun) * 1e9 / float64(dt)
		}
	}
	s.ss = append(s.ss, p)
	s.mu.Unlock()
	return p
}

// RunDES schedules n samples every `every` of simulated time on the DES
// engine (the first fires one interval from now). The samples land as
// the engine drains; harness code typically calls this right before the
// workload and reads Samples() after.
func (s *Sampler) RunDES(every netsim.VTime, n int) {
	eng := s.w.Engine()
	var tick func(left int)
	tick = func(left int) {
		if left <= 0 {
			return
		}
		eng.After(every, func() {
			s.Sample()
			tick(left - 1)
		})
	}
	tick(n)
}

// Samples returns the recorded series.
func (s *Sampler) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.ss...)
}

// Publish mirrors the most recent sample into gauges in reg (labelled
// mode/engine), so the HTTP endpoint exposes the sampler's view too.
func (s *Sampler) Publish(reg *Registry) {
	cfg := s.w.Config()
	base := []Label{L("mode", cfg.Mode.String()), L("engine", cfg.Engine.String())}
	ss := s.Samples()
	if len(ss) == 0 {
		return
	}
	last := ss[len(ss)-1]
	reg.Gauge("nmvgas_sampled_throughput_per_s", "Parcels/s between the last two samples", base...).Set(last.Throughput)
	reg.Gauge("nmvgas_sampled_queue_depth", "Summed per-rank backlog at the last sample", base...).Set(float64(last.QueueDepth))
	reg.Gauge("nmvgas_sampled_nic_table_entries", "Summed NIC table size at the last sample", base...).Set(float64(last.NICTableEntries))
}
