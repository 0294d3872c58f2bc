package runtime

import (
	"nmvgas/internal/netsim"
	"nmvgas/internal/stats"
)

// WorldStats aggregates runtime counters across all localities plus the
// NIC counters (the Net*/NIC*/DMA*/Scatter* fields), which both engines
// count through the one protocol core.
type WorldStats struct {
	ParcelsSent   int64
	ParcelsRun    int64
	LocalRuns     int64
	HostForwards  int64
	HostNacks     int64
	NICNacks      int64
	Queued        int64
	SWLookups     int64
	PutOps        int64
	GetOps        int64
	PutBytes      int64
	GetBytes      int64
	Migrations    int64
	LoopNacks     int64
	NetSent       uint64
	NetBytes      uint64
	NetForwards   uint64
	NetNacks      uint64
	NICTableUpds  uint64
	DMADeliveries uint64

	// Replica coherence counters (zero without ReplicateLive). Reads
	// served from fresh replicas vs. reads that arrived at a stale
	// replica and chased the master; invalidations and update snapshots
	// applied at holders; refills installed.
	ReplicaReads      int64
	ReplicaStaleReads int64
	ReplicaInvals     int64
	ReplicaUpdates    int64
	ReplicaFills      int64

	// Software translation-cache counters (AGASSW only): the full set
	// from agas.SWCache.Stats — hits, misses, capacity evictions,
	// in-place owner updates, and staleness corrections.
	SWCacheHits        uint64
	SWCacheMisses      uint64
	SWCacheEvictions   uint64
	SWCacheUpdates     uint64
	SWCacheCorrections uint64

	// BatchReroutes counts coalesced-batch records that reached a host
	// which no longer owned their block and were re-routed in software —
	// zero under in-NIC batch scatter for a plain migrating workload.
	BatchReroutes int64
	// ScatterSplits / ScatterForwards count in-NIC batch splitting.
	ScatterSplits   uint64
	ScatterForwards uint64

	// Delivery is the reliable-delivery and fault-injection report (all
	// zero when neither faults nor Reliability.Force are configured).
	Delivery DeliveryStats

	// Membership is the elastic-membership report (all zero until the
	// world kills, retires, or joins a locality).
	Membership MembershipStats

	// Latencies is the runtime latency report (zero unless
	// Config.Metrics; see WorldLatencies).
	Latencies WorldLatencies

	// Heat reports the sampled access-heat tracker (zero unless
	// Config.Heat.Enabled): whether it is on, and the cumulative sampled
	// access count across epochs.
	HeatEnabled bool
	HeatSampled uint64

	// Unacked is the instantaneous count of messages held by the
	// reliable layer awaiting acknowledgement (the black-hole audit
	// quantity; 0 when the layer is off).
	Unacked int

	// Pulses counts runtime pulse ticks fired so far (0 when
	// Config.Pulse is off). It is observability metadata: a pulse-on
	// world matches a pulse-off world on every other counter.
	Pulses uint64
}

// nicTotals sums every rank's NIC counters.
func (w *World) nicTotals() netsim.NICStats {
	var t netsim.NICStats
	for r := range w.locs {
		s := w.net.Stats(r)
		t.Add(&s)
	}
	return t
}

// Stats sums the per-locality and per-NIC counters.
func (w *World) Stats() WorldStats {
	var s WorldStats
	for _, l := range w.locs {
		s.ParcelsSent += l.Stats.ParcelsSent.Load()
		s.ParcelsRun += l.Stats.ParcelsRun.Load()
		s.LocalRuns += l.Stats.LocalRuns.Load()
		s.HostForwards += l.Stats.HostForwards.Load()
		s.HostNacks += l.Stats.HostNacks.Load()
		s.NICNacks += l.Stats.NICNacks.Load()
		s.Queued += l.Stats.Queued.Load()
		s.SWLookups += l.Stats.SWLookups.Load()
		s.PutOps += l.Stats.PutOps.Load()
		s.GetOps += l.Stats.GetOps.Load()
		s.PutBytes += l.Stats.PutBytes.Load()
		s.GetBytes += l.Stats.GetBytes.Load()
		s.Migrations += l.Stats.Migrations.Load()
		s.LoopNacks += l.Stats.LoopNacks.Load()
		s.BatchReroutes += l.Stats.BatchReroutes.Load()
		s.ReplicaReads += l.Stats.ReplicaReads.Load()
		s.ReplicaStaleReads += l.Stats.ReplicaStaleReads.Load()
		s.ReplicaInvals += l.Stats.ReplicaInvals.Load()
		s.ReplicaUpdates += l.Stats.ReplicaUpdates.Load()
		s.ReplicaFills += l.Stats.ReplicaFills.Load()
		if c := l.space.Cache(); c != nil {
			h, m, ev, up, corr := c.Stats()
			s.SWCacheHits += h
			s.SWCacheMisses += m
			s.SWCacheEvictions += ev
			s.SWCacheUpdates += up
			s.SWCacheCorrections += corr
		}
	}
	s.Delivery = w.DeliveryStats()
	s.Membership = w.MembershipStats()
	s.Latencies = w.Latencies()
	s.HeatEnabled = w.HeatEnabled()
	s.HeatSampled = w.HeatSampled()
	s.Unacked = w.UnackedMessages()
	s.Pulses = w.PulseCount()
	n := w.nicTotals()
	s.NetSent = n.Sent
	s.NetBytes = n.BytesTx
	s.NetForwards = n.Forwards
	s.NetNacks = n.Nacks
	s.NICTableUpds = n.TableUpdatesRx
	s.DMADeliveries = n.DMADelivered
	s.ScatterSplits = n.ScatterSplits
	s.ScatterForwards = n.ScatterForwards
	return s
}

// StatsTable renders the aggregate counters for human consumption (used
// by the demo binary and experiment reports).
func (w *World) StatsTable() *stats.Table {
	s := w.Stats()
	tb := stats.NewTable("world counters ("+w.cfg.Mode.String()+"/"+w.cfg.Engine.String()+")",
		"counter", "value")
	add := func(name string, v any) { tb.AddRow(name, v) }
	add("parcels.sent", s.ParcelsSent)
	add("parcels.run", s.ParcelsRun)
	add("parcels.local_fastpath", s.LocalRuns)
	add("host.forwards", s.HostForwards)
	add("host.nacks", s.HostNacks)
	add("nic.nacks_processed", s.NICNacks)
	add("migration.queued_msgs", s.Queued)
	add("sw.lookups", s.SWLookups)
	add("onesided.puts", s.PutOps)
	add("onesided.gets", s.GetOps)
	add("onesided.put_bytes", s.PutBytes)
	add("onesided.get_bytes", s.GetBytes)
	add("migrations.completed", s.Migrations)
	add("net.messages", s.NetSent)
	add("net.bytes", s.NetBytes)
	add("net.inflight_forwards", s.NetForwards)
	add("net.nacks", s.NetNacks)
	add("net.table_updates", s.NICTableUpds)
	add("net.dma_deliveries", s.DMADeliveries)
	add("net.scatter_splits", s.ScatterSplits)
	add("net.scatter_forwards", s.ScatterForwards)
	add("coalesce.batch_reroutes", s.BatchReroutes)
	add("replica.reads", s.ReplicaReads)
	add("replica.stale_reads", s.ReplicaStaleReads)
	add("replica.invalidations", s.ReplicaInvals)
	add("replica.updates", s.ReplicaUpdates)
	add("replica.fills", s.ReplicaFills)
	add("swcache.hits", s.SWCacheHits)
	add("swcache.misses", s.SWCacheMisses)
	add("swcache.evictions", s.SWCacheEvictions)
	add("swcache.updates", s.SWCacheUpdates)
	add("swcache.corrections", s.SWCacheCorrections)
	d := s.Delivery
	add("rel.tracked", d.Tracked)
	add("rel.retransmits", d.Retransmits)
	add("rel.dups_suppressed", d.DupsSuppressed)
	add("rel.abandoned", d.Abandoned)
	add("rel.loop_nacks", d.HopCapNacks)
	add("rel.unacked", s.Unacked)
	add("faults.dropped", d.Faults.Dropped)
	add("faults.duplicated", d.Faults.Duplicated)
	add("faults.delayed", d.Faults.Delayed)
	add("faults.targeted_drops", d.Faults.TargetedDrops)
	add("faults.table_lost", d.Faults.TableEntriesLost)
	if ms := s.Membership; ms.Epoch > 0 || ms.Suspicions > 0 {
		add("member.epoch", ms.Epoch)
		add("member.deaths", ms.Deaths)
		add("member.joins", ms.Joins)
		add("member.retires", ms.Retires)
		add("member.suspicions", ms.Suspicions)
		add("member.rehomed_blocks", ms.Rehomed)
		add("member.lost_blocks", ms.Lost)
		add("member.down_drops", ms.DownDrops)
		add("member.dead_nacks", ms.DeadNacks)
		add("member.stale_epoch_drops", ms.StaleEpochDrops)
	}
	if s.HeatEnabled {
		add("heat.sampled", s.HeatSampled)
	}
	if h := w.Health(); h.Enabled {
		add("pulse.ticks", s.Pulses)
		add("health.level", h.Level.String())
		for _, st := range h.Watchdogs {
			if st.Level > WatchOK {
				add("health."+st.Name, st.Level.String()+" ("+st.Detail+")")
			}
		}
	} else if s.Pulses > 0 {
		add("pulse.ticks", s.Pulses)
	}
	if lat := s.Latencies; lat.Enabled {
		for p, l := range lat.Path {
			if l.Count == 0 {
				continue
			}
			name := "lat." + LatPath(p).String()
			tb.AddRow(name+".p50_ns", l.P50Ns)
			tb.AddRow(name+".p95_ns", l.P95Ns)
			tb.AddRow(name+".p99_ns", l.P99Ns)
		}
	}
	return tb
}
