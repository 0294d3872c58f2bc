package metrics

import (
	"strconv"

	"nmvgas/internal/runtime"
)

// WorldPublisher mirrors a World's counters, per-rank state, and latency
// summaries into a Registry. Series handles are resolved once at
// construction; Refresh copies a consistent snapshot in, so scraping
// never touches runtime hot paths beyond the atomic counter loads the
// runtime already pays for.
type WorldPublisher struct {
	reg *Registry
	w   *runtime.World

	counters map[string]*Counter // world-level cumulative counters
	gauges   map[string]*Gauge   // world-level gauges

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
// publisher. Call Refresh before every scrape or sample.
func PublishWorld(reg *Registry, w *runtime.World) *WorldPublisher {
	cfg := w.Config()
	base := []Label{L("mode", cfg.Mode.String()), L("engine", cfg.Engine.String())}
	p := &WorldPublisher{
		reg:      reg,
		w:        w,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
	counter := func(name, help string) {
		p.counters[name] = reg.Counter(name, help, base...)
	}
	counter("nmvgas_parcels_sent_total", "Parcels sent by all localities")
	counter("nmvgas_parcels_run_total", "Parcel handlers executed")
	counter("nmvgas_host_forwards_total", "Software host forwards (stale deliveries redirected by the host)")
	counter("nmvgas_host_nacks_total", "One-sided operations repaired in host software")
	counter("nmvgas_nic_nacks_total", "Fabric NACKs processed by hosts")
	counter("nmvgas_queued_msgs_total", "Messages parked behind migrating blocks")
	counter("nmvgas_sw_lookups_total", "Software translation cache lookups")
	counter("nmvgas_put_ops_total", "One-sided put operations issued")
	counter("nmvgas_get_ops_total", "One-sided get operations issued")
	counter("nmvgas_migrations_total", "Completed block migrations")
	counter("nmvgas_retransmits_total", "Reliable-delivery retransmissions")
	counter("nmvgas_net_messages_total", "Fabric messages sent")
	counter("nmvgas_net_forwards_total", "In-network forwards")
	counter("nmvgas_scatter_splits_total", "Coalesced batches split in-NIC")
	counter("nmvgas_batch_reroutes_total", "Batched parcels re-routed in host software")
	counter("nmvgas_replica_reads_total", "Reads served from replica holders")
	counter("nmvgas_replica_stale_reads_total", "Replica reads that found the holder stale")
	counter("nmvgas_replica_invals_total", "Replica invalidations applied at holders")
	counter("nmvgas_replica_updates_total", "Write-update snapshots applied at holders")
	counter("nmvgas_replica_fills_total", "Replica refills installed at holders")
	counter("nmvgas_heat_sampled_total", "Accesses sampled by the heat tracker (0 when Config.Heat is off)")

	// Fault-injector and membership-fencing counters (all zero on an
	// unperturbed world).
	counter("nmvgas_fault_dropped_total", "Messages lost by the fault injector")
	counter("nmvgas_fault_duplicated_total", "Messages duplicated by the fault injector")
	counter("nmvgas_fault_delayed_total", "Messages delayed by the fault injector")
	counter("nmvgas_fault_targeted_drops_total", "Targeted control-class drops injected")
	counter("nmvgas_fault_table_entries_lost_total", "NIC translation entries soft-errored away")
	counter("nmvgas_fault_down_drops_total", "Messages swallowed at a down locality's link")
	counter("nmvgas_fault_dead_nacks_total", "NACKs synthesized for traffic routed at a dead locality")
	counter("nmvgas_fault_stale_epoch_drops_total", "NIC table updates discarded as older than the membership epoch")
	gauge := func(name, help string) {
		p.gauges[name] = reg.Gauge(name, help, base...)
	}
	gauge("nmvgas_unacked_messages", "Messages held by the reliable layer awaiting acknowledgement (black-hole audit; 0 when the layer is off)")
	gauge("nmvgas_member_epoch", "Current membership epoch (0 = membership never changed)")
	gauge("nmvgas_member_deaths", "Localities declared dead")
	gauge("nmvgas_member_joins", "Localities re-admitted via Join")
	gauge("nmvgas_member_retires", "Localities retired gracefully")
	gauge("nmvgas_member_suspicions", "Liveness probes raised (including false alarms)")
	gauge("nmvgas_member_rehomed_blocks", "Blocks re-homed onto survivors after a death")
	gauge("nmvgas_member_lost_blocks", "Blocks lost with their owner (no replica to promote)")

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
	set := func(name string, v int64) { p.counters[name].Set(v) }
	set("nmvgas_parcels_sent_total", s.ParcelsSent)
	set("nmvgas_parcels_run_total", s.ParcelsRun)
	set("nmvgas_host_forwards_total", s.HostForwards)
	set("nmvgas_host_nacks_total", s.HostNacks)
	set("nmvgas_nic_nacks_total", s.NICNacks)
	set("nmvgas_queued_msgs_total", s.Queued)
	set("nmvgas_sw_lookups_total", s.SWLookups)
	set("nmvgas_put_ops_total", s.PutOps)
	set("nmvgas_get_ops_total", s.GetOps)
	set("nmvgas_migrations_total", s.Migrations)
	set("nmvgas_retransmits_total", int64(s.Delivery.Retransmits))
	set("nmvgas_net_messages_total", int64(s.NetSent))
	set("nmvgas_net_forwards_total", int64(s.NetForwards))
	set("nmvgas_scatter_splits_total", int64(s.ScatterSplits))
	set("nmvgas_batch_reroutes_total", s.BatchReroutes)
	set("nmvgas_replica_reads_total", s.ReplicaReads)
	set("nmvgas_replica_stale_reads_total", s.ReplicaStaleReads)
	set("nmvgas_replica_invals_total", s.ReplicaInvals)
	set("nmvgas_replica_updates_total", s.ReplicaUpdates)
	set("nmvgas_replica_fills_total", s.ReplicaFills)
	set("nmvgas_heat_sampled_total", int64(s.HeatSampled))

	f := s.Delivery.Faults
	set("nmvgas_fault_dropped_total", int64(f.Dropped))
	set("nmvgas_fault_duplicated_total", int64(f.Duplicated))
	set("nmvgas_fault_delayed_total", int64(f.Delayed))
	set("nmvgas_fault_targeted_drops_total", int64(f.TargetedDrops))
	set("nmvgas_fault_table_entries_lost_total", int64(f.TableEntriesLost))
	ms := s.Membership
	set("nmvgas_fault_down_drops_total", int64(ms.DownDrops))
	set("nmvgas_fault_dead_nacks_total", int64(ms.DeadNacks))
	set("nmvgas_fault_stale_epoch_drops_total", int64(ms.StaleEpochDrops))
	sg := func(name string, v float64) { p.gauges[name].Set(v) }
	sg("nmvgas_unacked_messages", float64(s.Unacked))
	sg("nmvgas_member_epoch", float64(ms.Epoch))
	sg("nmvgas_member_deaths", float64(ms.Deaths))
	sg("nmvgas_member_joins", float64(ms.Joins))
	sg("nmvgas_member_retires", float64(ms.Retires))
	sg("nmvgas_member_suspicions", float64(ms.Suspicions))
	sg("nmvgas_member_rehomed_blocks", float64(ms.Rehomed))
	sg("nmvgas_member_lost_blocks", float64(ms.Lost))

	for r, depth := range p.w.QueueDepths() {
		ls := &p.w.Locality(r).Stats
		p.rankSent[r].Set(float64(ls.ParcelsSent.Load()))
		p.rankRun[r].Set(float64(ls.ParcelsRun.Load()))
		p.rankQueue[r].Set(float64(depth))
		p.rankTable[r].Set(float64(p.w.NICTableLen(r)))
		dd, dn, _ := p.w.NICFaultStats(r)
		p.rankDownDrops[r].Set(float64(dd))
		p.rankDeadNacks[r].Set(float64(dn))
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

// Registry returns the registry the publisher writes into.
func (p *WorldPublisher) Registry() *Registry { return p.reg }
