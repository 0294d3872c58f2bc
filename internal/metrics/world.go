package metrics

import (
	"strconv"

	"nmvgas/internal/netsim"
	"nmvgas/internal/runtime"
)

// WorldPublisher mirrors a World's counters, per-rank state, and latency
// summaries into a Registry. Series handles are resolved once at
// construction; Refresh copies a snapshot in, reading each rank's
// counters on its one writer (World.Stats, World.RankStats), so scraping
// adds nothing to the runtime's hot paths.
type WorldPublisher struct {
	w *runtime.World

	world []func(*runtime.WorldStats) // one setter per published runtime.WorldCounters row

	rankSent      []*Gauge
	rankRun       []*Gauge
	rankQueue     []*Gauge
	rankTable     []*Gauge
	rankDownDrops []*Gauge
	rankDeadNacks []*Gauge
	rankHeat      []*Gauge

	lat []*Summary // one per runtime.LatPath when cfg.Metrics
}

// PublishWorld registers w's metric series (labelled with mode and
// engine, per-rank series additionally with rank) in reg and returns the
// publisher. The world-level series are the runtime.WorldCounters rows
// that name one. Call Refresh before every scrape or sample.
func PublishWorld(reg *Registry, w *runtime.World) *WorldPublisher {
	cfg := w.Config()
	base := []Label{L("mode", cfg.Mode.String()), L("engine", cfg.Engine.String())}
	p := &WorldPublisher{w: w}
	for _, c := range runtime.WorldCounters {
		switch {
		case c.Series == "":
		case c.Gauge:
			g := reg.Gauge(c.Series, c.Help, base...)
			p.world = append(p.world, func(s *runtime.WorldStats) { g.Set(float64(c.Value(s))) })
		default:
			k := reg.Counter(c.Series, c.Help, base...)
			p.world = append(p.world, func(s *runtime.WorldStats) { k.Set(c.Value(s)) })
		}
	}

	ranks := w.Ranks()
	for r := 0; r < ranks; r++ {
		lbl := append(append([]Label(nil), base...), L("rank", strconv.Itoa(r)))
		p.rankSent = append(p.rankSent, reg.Gauge("nmvgas_rank_parcels_sent", "Parcels sent by one locality", lbl...))
		p.rankRun = append(p.rankRun, reg.Gauge("nmvgas_rank_parcels_run", "Parcel handlers executed by one locality", lbl...))
		p.rankQueue = append(p.rankQueue, reg.Gauge("nmvgas_rank_queue_depth", "Pending host-executor backlog", lbl...))
		p.rankTable = append(p.rankTable, reg.Gauge("nmvgas_rank_nic_table_entries", "NIC-resident translation table size", lbl...))
		p.rankDownDrops = append(p.rankDownDrops, reg.Gauge("nmvgas_fault_rank_down_drops", "Messages this NIC swallowed at a down link", lbl...))
		p.rankDeadNacks = append(p.rankDeadNacks, reg.Gauge("nmvgas_fault_rank_dead_nacks", "Dead-rank NACKs this NIC synthesized", lbl...))
		p.rankHeat = append(p.rankHeat, reg.Gauge("nmvgas_rank_heat_load", "Sampled accesses served by this locality in the current heat epoch", lbl...))
	}

	if cfg.Metrics {
		for path := range runtime.NumLatPaths {
			lbl := append(append([]Label(nil), base...), L("path", path.String()))
			p.lat = append(p.lat, reg.Summary("nmvgas_latency_ns",
				"Runtime latency distributions (ns on the engine's trace clock)", lbl...))
		}
	}
	return p
}

// Refresh copies the world's current state into the registry.
func (p *WorldPublisher) Refresh() {
	s := p.w.Stats()
	for _, set := range p.world {
		set(&s)
	}

	for r, depth := range p.w.QueueDepths() {
		rs := p.w.RankStats(r)
		p.rankSent[r].Set(float64(rs.Loc.ParcelsSent))
		p.rankRun[r].Set(float64(rs.Loc.ParcelsRun))
		p.rankQueue[r].Set(float64(depth))
		p.rankTable[r].Set(float64(rs.NICTable))
		p.rankDownDrops[r].Set(float64(rs.NIC[netsim.CntDownDrops]))
		p.rankDeadNacks[r].Set(float64(rs.NIC[netsim.CntDeadNacks]))
	}
	if loads := p.w.HeatLoads(); loads != nil {
		for r, l := range loads {
			p.rankHeat[r].Set(float64(l))
		}
	}

	if len(p.lat) > 0 && s.Latencies.Enabled {
		for path, l := range s.Latencies.Path {
			p.lat[path].Set(l.Count, l.MeanNs*float64(l.Count), map[float64]float64{
				0.5:  float64(l.P50Ns),
				0.95: float64(l.P95Ns),
				0.99: float64(l.P99Ns),
			})
		}
	}
}
