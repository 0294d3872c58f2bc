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

// RankStats is one rank's counters, read in one claim of the rank.
type RankStats struct {
	Loc      LocStats
	NIC      netsim.NICStats
	NICTable int // NIC-resident translation table entries (0 without NIC translation)
}

// RankStats reads rank's counters through its one writer (World.claim).
func (w *World) RankStats(rank int) (s RankStats) {
	w.claim(rank, func() {
		s.Loc, s.NIC = w.locs[rank].stats, w.net.Stats(rank)
		w.net.State(rank, func(st *netsim.TransState) { s.NICTable = st.Table.Len() })
	})
	return s
}

// Stats sums the per-locality and per-NIC counters (World.counters) and
// adds the latency, heat and pulse reports.
func (w *World) Stats() WorldStats {
	s := w.counters()
	s.Latencies = w.Latencies()
	s.HeatEnabled = w.HeatEnabled()
	s.Pulses = w.PulseCount()
	return s
}

// counters reads every rank's counters in one claim of the rank each,
// then the fault injector's and the membership layer's.
func (w *World) counters() (s WorldStats) {
	for r, l := range w.locs {
		w.claim(r, func() { s.addRank(l, w.net.Stats(r)) })
	}
	s.Delivery.Faults = w.net.faultStats()
	m, ms := w.mem, &s.Membership
	m.mu.Lock()
	ms.Epoch, ms.Deaths, ms.Joins, ms.Retires = m.epoch, m.deaths, m.joins, m.retires
	ms.Suspicions, ms.Rehomed, ms.Lost = m.suspicions, m.rehomed, m.lostCount
	m.mu.Unlock()
	return s
}

// addRank adds l's counters and its NIC's, n, to s. The caller holds
// l's rank.
func (s *WorldStats) addRank(l *Locality, n netsim.NICStats) {
	ls := &l.stats
	s.ParcelsSent += ls.ParcelsSent
	s.ParcelsRun += ls.ParcelsRun
	s.LocalRuns += ls.LocalRuns
	s.HostForwards += ls.HostForwards
	s.HostNacks += ls.HostNacks
	s.NICNacks += ls.NICNacks
	s.Queued += ls.Queued
	s.SWLookups += ls.SWLookups
	s.PutOps += ls.PutOps
	s.GetOps += ls.GetOps
	s.PutBytes += ls.PutBytes
	s.GetBytes += ls.GetBytes
	s.Migrations += ls.Migrations
	s.LoopNacks += ls.LoopNacks
	s.BatchReroutes += ls.BatchReroutes
	s.ReplicaReads += ls.ReplicaReads
	s.ReplicaStaleReads += ls.ReplicaStaleReads
	s.ReplicaInvals += ls.ReplicaInvals
	s.ReplicaUpdates += ls.ReplicaUpdates
	s.ReplicaFills += ls.ReplicaFills
	if l.heat != nil {
		s.HeatSampled += l.heat.total
	}
	if c := l.space.Cache(); c != nil {
		h, m, ev, up, corr := c.Stats()
		s.SWCacheHits += h
		s.SWCacheMisses += m
		s.SWCacheEvictions += ev
		s.SWCacheUpdates += up
		s.SWCacheCorrections += corr
	}
	s.Delivery.HopCapNacks += uint64(ls.LoopNacks)
	if rl := l.rel; rl != nil {
		s.Delivery.add(&rl.stats)
		s.Unacked += rl.unacked()
	}
	s.NetSent += n[netsim.CntSent]
	s.NetBytes += n[netsim.CntBytesTx]
	s.NetForwards += n[netsim.CntForwards]
	s.NetNacks += n[netsim.CntNacks]
	s.NICTableUpds += n[netsim.CntTableUpdatesRx]
	s.DMADeliveries += n[netsim.CntDMADelivered]
	s.ScatterSplits += n[netsim.CntScatterSplits]
	s.ScatterForwards += n[netsim.CntScatterForwards]
	s.Membership.DownDrops += n[netsim.CntDownDrops]
	s.Membership.DeadNacks += n[netsim.CntDeadNacks]
	s.Membership.StaleEpochDrops += n[netsim.CntStaleEpochDrops]
}

// WorldCounter is one scalar world counter: a StatsTable row and, when
// Series is set, one Prometheus series, which package metrics publishes
// under the world's mode and engine labels.
type WorldCounter struct {
	Name   string // StatsTable row
	Series string // Prometheus series ("" = table only)
	Help   string // the series' help text
	Gauge  bool   // a gauge series, not a cumulative counter
	Value  func(*WorldStats) int64
	when   rowWhen
}

// rowWhen is when StatsTable prints a row: always, or only inside the
// membership or heat section.
type rowWhen uint8

const (
	always rowWhen = iota
	whenMember
	whenHeat
)

// WorldCounters lists every scalar world counter once, in StatsTable
// order. Adding one takes a WorldStats field, its line in Stats and a row
// here.
var WorldCounters = []WorldCounter{
	{"parcels.sent", "nmvgas_parcels_sent_total", "Parcels sent by all localities", false, func(s *WorldStats) int64 { return s.ParcelsSent }, always},
	{"parcels.run", "nmvgas_parcels_run_total", "Parcel handlers executed", false, func(s *WorldStats) int64 { return s.ParcelsRun }, always},
	{"parcels.local_fastpath", "", "", false, func(s *WorldStats) int64 { return s.LocalRuns }, always},
	{"host.forwards", "nmvgas_host_forwards_total", "Software host forwards (stale deliveries redirected by the host)", false, func(s *WorldStats) int64 { return s.HostForwards }, always},
	{"host.nacks", "nmvgas_host_nacks_total", "One-sided operations repaired in host software", false, func(s *WorldStats) int64 { return s.HostNacks }, always},
	{"nic.nacks_processed", "nmvgas_nic_nacks_total", "Fabric NACKs processed by hosts", false, func(s *WorldStats) int64 { return s.NICNacks }, always},
	{"migration.queued_msgs", "nmvgas_queued_msgs_total", "Messages parked behind migrating blocks", false, func(s *WorldStats) int64 { return s.Queued }, always},
	{"sw.lookups", "nmvgas_sw_lookups_total", "Software translation cache lookups", false, func(s *WorldStats) int64 { return s.SWLookups }, always},
	{"onesided.puts", "nmvgas_put_ops_total", "One-sided put operations issued", false, func(s *WorldStats) int64 { return s.PutOps }, always},
	{"onesided.gets", "nmvgas_get_ops_total", "One-sided get operations issued", false, func(s *WorldStats) int64 { return s.GetOps }, always},
	{"onesided.put_bytes", "", "", false, func(s *WorldStats) int64 { return s.PutBytes }, always},
	{"onesided.get_bytes", "", "", false, func(s *WorldStats) int64 { return s.GetBytes }, always},
	{"migrations.completed", "nmvgas_migrations_total", "Completed block migrations", false, func(s *WorldStats) int64 { return s.Migrations }, always},
	{"net.messages", "nmvgas_net_messages_total", "Fabric messages sent", false, func(s *WorldStats) int64 { return int64(s.NetSent) }, always},
	{"net.bytes", "", "", false, func(s *WorldStats) int64 { return int64(s.NetBytes) }, always},
	{"net.inflight_forwards", "nmvgas_net_forwards_total", "In-network forwards", false, func(s *WorldStats) int64 { return int64(s.NetForwards) }, always},
	{"net.nacks", "", "", false, func(s *WorldStats) int64 { return int64(s.NetNacks) }, always},
	{"net.table_updates", "", "", false, func(s *WorldStats) int64 { return int64(s.NICTableUpds) }, always},
	{"net.dma_deliveries", "", "", false, func(s *WorldStats) int64 { return int64(s.DMADeliveries) }, always},
	{"net.scatter_splits", "nmvgas_scatter_splits_total", "Coalesced batches split in-NIC", false, func(s *WorldStats) int64 { return int64(s.ScatterSplits) }, always},
	{"net.scatter_forwards", "", "", false, func(s *WorldStats) int64 { return int64(s.ScatterForwards) }, always},
	{"coalesce.batch_reroutes", "nmvgas_batch_reroutes_total", "Batched parcels re-routed in host software", false, func(s *WorldStats) int64 { return s.BatchReroutes }, always},
	{"replica.reads", "nmvgas_replica_reads_total", "Reads served from replica holders", false, func(s *WorldStats) int64 { return s.ReplicaReads }, always},
	{"replica.stale_reads", "nmvgas_replica_stale_reads_total", "Replica reads that found the holder stale", false, func(s *WorldStats) int64 { return s.ReplicaStaleReads }, always},
	{"replica.invalidations", "nmvgas_replica_invals_total", "Replica invalidations applied at holders", false, func(s *WorldStats) int64 { return s.ReplicaInvals }, always},
	{"replica.updates", "nmvgas_replica_updates_total", "Write-update snapshots applied at holders", false, func(s *WorldStats) int64 { return s.ReplicaUpdates }, always},
	{"replica.fills", "nmvgas_replica_fills_total", "Replica refills installed at holders", false, func(s *WorldStats) int64 { return s.ReplicaFills }, always},
	{"swcache.hits", "", "", false, func(s *WorldStats) int64 { return int64(s.SWCacheHits) }, always},
	{"swcache.misses", "", "", false, func(s *WorldStats) int64 { return int64(s.SWCacheMisses) }, always},
	{"swcache.evictions", "", "", false, func(s *WorldStats) int64 { return int64(s.SWCacheEvictions) }, always},
	{"swcache.updates", "", "", false, func(s *WorldStats) int64 { return int64(s.SWCacheUpdates) }, always},
	{"swcache.corrections", "", "", false, func(s *WorldStats) int64 { return int64(s.SWCacheCorrections) }, always},
	{"rel.tracked", "", "", false, func(s *WorldStats) int64 { return int64(s.Delivery.Tracked) }, always},
	{"rel.retransmits", "nmvgas_retransmits_total", "Reliable-delivery retransmissions", false, func(s *WorldStats) int64 { return int64(s.Delivery.Retransmits) }, always},
	{"rel.dups_suppressed", "", "", false, func(s *WorldStats) int64 { return int64(s.Delivery.DupsSuppressed) }, always},
	{"rel.abandoned", "", "", false, func(s *WorldStats) int64 { return int64(s.Delivery.Abandoned) }, always},
	{"rel.loop_nacks", "", "", false, func(s *WorldStats) int64 { return int64(s.Delivery.HopCapNacks) }, always},
	{"rel.unacked", "nmvgas_unacked_messages", "Messages held by the reliable layer awaiting acknowledgement (black-hole audit; 0 when the layer is off)", true, func(s *WorldStats) int64 { return int64(s.Unacked) }, always},
	{"faults.dropped", "nmvgas_fault_dropped_total", "Messages lost by the fault injector", false, func(s *WorldStats) int64 { return int64(s.Delivery.Faults.Dropped) }, always},
	{"faults.duplicated", "nmvgas_fault_duplicated_total", "Messages duplicated by the fault injector", false, func(s *WorldStats) int64 { return int64(s.Delivery.Faults.Duplicated) }, always},
	{"faults.delayed", "nmvgas_fault_delayed_total", "Messages delayed by the fault injector", false, func(s *WorldStats) int64 { return int64(s.Delivery.Faults.Delayed) }, always},
	{"faults.targeted_drops", "nmvgas_fault_targeted_drops_total", "Targeted control-class drops injected", false, func(s *WorldStats) int64 { return int64(s.Delivery.Faults.TargetedDrops) }, always},
	{"faults.table_lost", "nmvgas_fault_table_entries_lost_total", "NIC translation entries soft-errored away", false, func(s *WorldStats) int64 { return int64(s.Delivery.Faults.TableEntriesLost) }, always},
	{"member.epoch", "nmvgas_member_epoch", "Current membership epoch (0 = membership never changed)", true, func(s *WorldStats) int64 { return int64(s.Membership.Epoch) }, whenMember},
	{"member.deaths", "nmvgas_member_deaths", "Localities declared dead", true, func(s *WorldStats) int64 { return int64(s.Membership.Deaths) }, whenMember},
	{"member.joins", "nmvgas_member_joins", "Localities re-admitted via Join", true, func(s *WorldStats) int64 { return int64(s.Membership.Joins) }, whenMember},
	{"member.retires", "nmvgas_member_retires", "Localities retired gracefully", true, func(s *WorldStats) int64 { return int64(s.Membership.Retires) }, whenMember},
	{"member.suspicions", "nmvgas_member_suspicions", "Liveness probes raised (including false alarms)", true, func(s *WorldStats) int64 { return int64(s.Membership.Suspicions) }, whenMember},
	{"member.rehomed_blocks", "nmvgas_member_rehomed_blocks", "Blocks re-homed onto survivors after a death", true, func(s *WorldStats) int64 { return int64(s.Membership.Rehomed) }, whenMember},
	{"member.lost_blocks", "nmvgas_member_lost_blocks", "Blocks lost with their owner (no replica to promote)", true, func(s *WorldStats) int64 { return int64(s.Membership.Lost) }, whenMember},
	{"member.down_drops", "nmvgas_fault_down_drops_total", "Messages swallowed at a down locality's link", false, func(s *WorldStats) int64 { return int64(s.Membership.DownDrops) }, whenMember},
	{"member.dead_nacks", "nmvgas_fault_dead_nacks_total", "NACKs synthesized for traffic routed at a dead locality", false, func(s *WorldStats) int64 { return int64(s.Membership.DeadNacks) }, whenMember},
	{"member.stale_epoch_drops", "nmvgas_fault_stale_epoch_drops_total", "NIC table updates discarded as older than the membership epoch", false, func(s *WorldStats) int64 { return int64(s.Membership.StaleEpochDrops) }, whenMember},
	{"heat.sampled", "nmvgas_heat_sampled_total", "Accesses sampled by the heat tracker (0 when Config.Heat is off)", false, func(s *WorldStats) int64 { return int64(s.HeatSampled) }, whenHeat},
}

// StatsTable renders the aggregate counters for human consumption (used
// by the demo binary and experiment reports): every WorldCounters row
// whose section is on, then the pulse, health and latency sections.
func (w *World) StatsTable() *stats.Table {
	s := w.Stats()
	tb := stats.NewTable("world counters ("+w.cfg.Mode.String()+"/"+w.cfg.Engine.String()+")",
		"counter", "value")
	ms := s.Membership
	show := [...]bool{always: true, whenMember: ms.Epoch > 0 || ms.Suspicions > 0, whenHeat: s.HeatEnabled}
	for _, c := range WorldCounters {
		if show[c.when] {
			tb.AddRow(c.Name, c.Value(&s))
		}
	}
	if h := w.Health(); h.Enabled {
		tb.AddRow("pulse.ticks", s.Pulses)
		tb.AddRow("health.level", h.Level.String())
		for _, st := range h.Watchdogs {
			if st.Level > WatchOK {
				tb.AddRow("health."+st.Name, st.Level.String()+" ("+st.Detail+")")
			}
		}
	} else if s.Pulses > 0 {
		tb.AddRow("pulse.ticks", s.Pulses)
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
