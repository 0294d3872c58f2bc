package exp

import (
	"strconv"
	"strings"
	"testing"

	"nmvgas/internal/stats"
)

func quick() Options { return Options{Quick: true, Seed: 42} }

// cell parses a table cell as float.
func cell(t *testing.T, tb *stats.Table, row, col int) float64 {
	t.Helper()
	s := tb.Rows[row][col]
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell [%d][%d] = %q not numeric: %v", row, col, s, err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "T2", "T3", "T4", "T5", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15", "F16", "F17", "F18", "F19", "F20", "A1", "A2", "C1", "C2"}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(IDs()) < len(want) {
		t.Fatalf("registry has %d experiments, want >= %d", len(IDs()), len(want))
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find accepted unknown id")
	}
}

func TestT1LatencyShape(t *testing.T) {
	tb := mustRun(t, "T1")
	last := len(tb.Rows) - 1
	// NM within 20% of PGAS at the smallest size; SW strictly slower
	// than NM there.
	pg, sw, nm := cell(t, tb, 0, 1), cell(t, tb, 0, 2), cell(t, tb, 0, 3)
	if nm < pg {
		t.Fatalf("NM %v beat PGAS %v", nm, pg)
	}
	if nm > 1.2*pg {
		t.Fatalf("NM %v more than 20%% over PGAS %v", nm, pg)
	}
	if sw <= nm {
		t.Fatalf("SW %v not slower than NM %v at 8B", sw, nm)
	}
	// Large transfers converge: SW/NM ratio shrinks with size.
	swL, nmL := cell(t, tb, last, 2), cell(t, tb, last, 3)
	if (sw/nm)/(swL/nmL) < 1.0 {
		t.Fatalf("SW overhead did not shrink with size: small ratio %v, large ratio %v", sw/nm, swL/nmL)
	}
	// Latency grows with size.
	if cell(t, tb, last, 1) <= pg {
		t.Fatal("latency did not grow with size")
	}
}

func TestT2GetShape(t *testing.T) {
	tb := mustRun(t, "T2")
	pg, sw, nm := cell(t, tb, 0, 1), cell(t, tb, 0, 2), cell(t, tb, 0, 3)
	if !(pg <= nm && nm < sw) {
		t.Fatalf("get ordering broken: pgas=%v nm=%v sw=%v", pg, nm, sw)
	}
}

func TestF1ThroughputShape(t *testing.T) {
	tb := mustRun(t, "F1")
	last := len(tb.Rows) - 1
	// Throughput rises with size and converges across modes at large
	// sizes (wire-limited).
	if cell(t, tb, last, 1) <= cell(t, tb, 0, 1) {
		t.Fatal("throughput did not rise with size")
	}
	pgL, swL := cell(t, tb, last, 1), cell(t, tb, last, 2)
	if swL < 0.8*pgL {
		t.Fatalf("SW large-message throughput %v too far under PGAS %v", swL, pgL)
	}
}

func TestF2RTTShape(t *testing.T) {
	tb := mustRun(t, "F2")
	pg, sw, nm := cell(t, tb, 0, 1), cell(t, tb, 0, 2), cell(t, tb, 0, 3)
	if !(pg <= nm && nm < sw) {
		t.Fatalf("rtt ordering broken: pgas=%v nm=%v sw=%v", pg, nm, sw)
	}
}

func TestF3CapacityCliff(t *testing.T) {
	tb := mustRun(t, "F3")
	// First row: working set fits (hit rate high). Last row: working set
	// 2x+ the table (hit rate collapses). SW unbounded cache stays hot.
	first, last := 0, len(tb.Rows)-1
	if hr := cell(t, tb, first, 1); hr < 0.9 {
		t.Fatalf("NM hit rate %v with fitting working set", hr)
	}
	if hr := cell(t, tb, last, 1); hr > 0.5 {
		t.Fatalf("NM hit rate %v beyond capacity — no cliff", hr)
	}
	if hr := cell(t, tb, last, 3); hr < 0.9 {
		t.Fatalf("SW unbounded cache hit rate %v", hr)
	}
	// Latency rises across the cliff.
	if cell(t, tb, last, 2) <= cell(t, tb, first, 2) {
		t.Fatal("NM latency did not rise past the capacity cliff")
	}
}

func TestF4MigrationShape(t *testing.T) {
	tb := mustRun(t, "F4")
	last := len(tb.Rows) - 1
	// Migration cost grows with block size.
	if cell(t, tb, last, 1) <= cell(t, tb, 0, 1) {
		t.Fatal("SW migration cost flat in size")
	}
	if cell(t, tb, last, 2) <= cell(t, tb, 0, 2) {
		t.Fatal("NM migration cost flat in size")
	}
}

func TestF5GUPSShape(t *testing.T) {
	tb := mustRun(t, "F5")
	for r := 0; r < len(tb.Rows); r++ {
		pg, sw, nm := cell(t, tb, r, 1), cell(t, tb, r, 2), cell(t, tb, r, 3)
		if sw >= nm {
			t.Fatalf("row %d: SW GUPS %v not slower than NM %v", r, sw, nm)
		}
		if nm > 1.35*pg {
			t.Fatalf("row %d: NM %v too far over PGAS %v", r, nm, pg)
		}
	}
}

func TestF6ChaseShape(t *testing.T) {
	tb := mustRun(t, "F6")
	// Rows: pgas, agas-sw, agas-nm. PGAS cannot improve; AGAS modes must
	// speed up by consolidation.
	if sp := cell(t, tb, 0, 3); sp != 1 {
		t.Fatalf("PGAS chase speedup %v, want 1 (cannot migrate)", sp)
	}
	for r := 1; r <= 2; r++ {
		if sp := cell(t, tb, r, 3); sp < 2 {
			t.Fatalf("row %d consolidation speedup %v < 2", r, sp)
		}
	}
}

func TestF8StencilShape(t *testing.T) {
	tb := mustRun(t, "F8")
	if sp := cell(t, tb, 0, 3); sp != 1 {
		t.Fatalf("PGAS stencil speedup %v", sp)
	}
	for r := 1; r <= 2; r++ {
		if sp := cell(t, tb, r, 3); sp <= 1.5 {
			t.Fatalf("row %d adaptive speedup %v <= 1.5", r, sp)
		}
	}
}

func TestF9ChurnShape(t *testing.T) {
	tb := mustRun(t, "F9")
	last := len(tb.Rows) - 1
	// Under churn, NM throughput must exceed both SW policies.
	sw, swInv, nm := cell(t, tb, last, 1), cell(t, tb, last, 2), cell(t, tb, last, 3)
	if nm <= sw || nm <= swInv {
		t.Fatalf("NM %v not ahead under churn (sw=%v swInv=%v)", nm, sw, swInv)
	}
}

func TestT3ScalingShape(t *testing.T) {
	tb := mustRun(t, "T3")
	// Put latency roughly flat across scales; barrier grows.
	first, last := 0, len(tb.Rows)-1
	if p0, pl := cell(t, tb, first, 3), cell(t, tb, last, 3); pl > 1.5*p0 {
		t.Fatalf("NM put latency not flat: %v → %v", p0, pl)
	}
	if cell(t, tb, last, 4) <= cell(t, tb, first, 4) {
		t.Fatal("barrier time did not grow with ranks")
	}
}

func TestT4BreakdownSums(t *testing.T) {
	tb := mustRun(t, "T4")
	for r := 0; r < len(tb.Rows); r++ {
		sum := cell(t, tb, r, 1) + cell(t, tb, r, 2) + cell(t, tb, r, 3) + cell(t, tb, r, 4)
		measured := cell(t, tb, r, 5)
		// The component model must explain the measured one-way time to
		// within 25% (scheduling residue accounts for the rest).
		if measured < 0.75*sum || measured > 1.25*sum {
			t.Fatalf("row %d: components %v vs measured %v", r, sum, measured)
		}
	}
}

func TestA1ForwardingShape(t *testing.T) {
	tb := mustRun(t, "A1")
	// forward+push first access beats nack first access.
	fw, nack := cell(t, tb, 0, 1), cell(t, tb, 2, 1)
	if fw >= nack {
		t.Fatalf("forwarding first access %v not faster than NACK %v", fw, nack)
	}
	if n := cell(t, tb, 2, 3); n == 0 {
		t.Fatal("NACK policy recorded no NACKs")
	}
}

func TestA2UpdatePolicyShape(t *testing.T) {
	tb := mustRun(t, "A2")
	lazyFirst, lazyCtrl := cell(t, tb, 0, 1), cell(t, tb, 0, 2)
	eagerFirst, eagerCtrl := cell(t, tb, 1, 1), cell(t, tb, 1, 2)
	if eagerFirst >= lazyFirst {
		t.Fatalf("eager first access %v not faster than lazy %v", eagerFirst, lazyFirst)
	}
	if eagerCtrl <= lazyCtrl {
		t.Fatalf("eager control traffic %v not higher than lazy %v", eagerCtrl, lazyCtrl)
	}
}

func TestF7BFSRebalanceShape(t *testing.T) {
	tb := mustRun(t, "F7")
	// Rows: pgas, agas-sw, agas-nm. Columns: static, cold, warm, moved.
	for r := 1; r <= 2; r++ {
		static, warm := cell(t, tb, r, 1), cell(t, tb, r, 3)
		if warm <= static {
			t.Fatalf("row %d: warm rebalanced %v not faster than pathological static %v", r, warm, static)
		}
		if moved := cell(t, tb, r, 4); moved == 0 {
			t.Fatalf("row %d: nothing migrated", r)
		}
	}
	// NM absorbs the mass migration in the network: its cold run is
	// within a few percent of warm. SW pays a visible host repair storm.
	nmCold, nmWarm := cell(t, tb, 2, 2), cell(t, tb, 2, 3)
	if nmCold < 0.95*nmWarm {
		t.Fatalf("NM cold %v far below warm %v", nmCold, nmWarm)
	}
	swCold, swWarm := cell(t, tb, 1, 2), cell(t, tb, 1, 3)
	if swCold >= swWarm {
		t.Fatalf("SW cold %v not slower than warm %v (no repair storm visible)", swCold, swWarm)
	}
	if nmWarm <= swWarm {
		t.Fatalf("NM warm %v not ahead of SW warm %v", nmWarm, swWarm)
	}
}

func TestF10HistogramShape(t *testing.T) {
	tb := mustRun(t, "F10")
	for r := 1; r <= 2; r++ {
		static, after := cell(t, tb, r, 1), cell(t, tb, r, 2)
		if after < 0.9*static {
			t.Fatalf("row %d: placement regressed %v → %v", r, static, after)
		}
	}
}

func TestF11SSSPShape(t *testing.T) {
	tb := mustRun(t, "F11")
	// Balanced placement beats serialized for every mode (SSSP is
	// parallel); on the balanced run nm ≈ pgas < sw.
	for r := 0; r < len(tb.Rows); r++ {
		if cell(t, tb, r, 1) >= cell(t, tb, r, 2) {
			t.Fatalf("row %d: cyclic not faster than serialized", r)
		}
	}
	pg, sw, nm := cell(t, tb, 0, 1), cell(t, tb, 1, 1), cell(t, tb, 2, 1)
	if sw <= nm {
		t.Fatalf("SW SSSP %v not slower than NM %v", sw, nm)
	}
	if nm > 1.15*pg {
		t.Fatalf("NM SSSP %v too far over PGAS %v", nm, pg)
	}
	// All modes reach the same vertex count.
	for r := 1; r < len(tb.Rows); r++ {
		if cell(t, tb, r, 3) != cell(t, tb, 0, 3) {
			t.Fatal("reached counts differ across modes")
		}
	}
}

func TestF12TopologyShape(t *testing.T) {
	tb := mustRun(t, "F12")
	// Inter-pod put ordering survives oversubscription: pgas <= nm < sw.
	pg, sw, nm := cell(t, tb, 0, 1), cell(t, tb, 0, 2), cell(t, tb, 0, 3)
	if !(pg <= nm && nm < sw) {
		t.Fatalf("interpod put ordering broken: pgas=%v sw=%v nm=%v", pg, sw, nm)
	}
	// Post-migration steady state: nm <= sw on the two-tier fabric too.
	if swRTT, nmRTT := cell(t, tb, 1, 2), cell(t, tb, 1, 3); nmRTT > swRTT {
		t.Fatalf("post-migration NM %v behind SW %v under oversubscription", nmRTT, swRTT)
	}
}

func TestT5AllToAllShape(t *testing.T) {
	tb := mustRun(t, "T5")
	last := len(tb.Rows) - 1
	// Aggregate bandwidth rises with chunk size; SW trails at small
	// chunks and converges at large ones.
	if cell(t, tb, last, 1) <= cell(t, tb, 0, 1) {
		t.Fatal("all-to-all bandwidth flat in size")
	}
	if sw, nm := cell(t, tb, 0, 2), cell(t, tb, 0, 3); sw >= nm {
		t.Fatalf("small-chunk SW %v not behind NM %v", sw, nm)
	}
	if sw, nm := cell(t, tb, last, 2), cell(t, tb, last, 3); sw < 0.9*nm {
		t.Fatalf("large-chunk SW %v did not converge to NM %v", sw, nm)
	}
}

func TestF13CoalesceShape(t *testing.T) {
	tb := mustRun(t, "F13")
	last := len(tb.Rows) - 1
	// Batching cuts wire messages and raises lone-parcel latency.
	if cell(t, tb, last, 2) >= cell(t, tb, 0, 2) {
		t.Fatal("coalescing did not reduce wire messages")
	}
	if cell(t, tb, last, 3) <= cell(t, tb, 0, 3) {
		t.Fatal("coalescing did not penalize lone parcels")
	}
	// Throughput must not collapse.
	if cell(t, tb, last, 1) < 0.8*cell(t, tb, 0, 1) {
		t.Fatal("coalescing destroyed throughput")
	}
}

func TestF14ReplicationShape(t *testing.T) {
	tb := mustRun(t, "F14")
	for r := 0; r < len(tb.Rows); r++ {
		if sp := cell(t, tb, r, 3); sp < 5 {
			t.Fatalf("row %d: replication speedup %v < 5", r, sp)
		}
	}
	// Replicated reads are translation-free: all modes converge.
	a, b, c := cell(t, tb, 0, 2), cell(t, tb, 1, 2), cell(t, tb, 2, 2)
	if a != b || b != c {
		t.Fatalf("replicated read costs differ across modes: %v %v %v", a, b, c)
	}
}

func TestF16ReplicatedReadsShape(t *testing.T) {
	tb := mustRun(t, "F16")
	// Quick: 3 modes × replica counts {0, 3} = 6 rows; even rows are the
	// unreplicated baselines.
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
	for r := 0; r < 6; r += 2 {
		base, repl := cell(t, tb, r, 2), cell(t, tb, r+1, 2)
		if repl < 1.5*base {
			t.Fatalf("row %d: replicated throughput %v not ahead of baseline %v", r+1, repl, base)
		}
		if cell(t, tb, r+1, 6) == 0 {
			t.Fatalf("row %d: no invalidations — coherence never exercised", r+1)
		}
	}
	// The measured (write-free) phase never detours through a host: every
	// read resolves at a fresh replica or the master.
	for r := 0; r < 6; r++ {
		if d := cell(t, tb, r, 3); d != 0 {
			t.Fatalf("row %d: %v host detours in the measured read phase", r, d)
		}
	}
	// Warm phase: software AGAS pays host-side stale-window corrections
	// that the network-managed mode absorbs in the NIC.
	if sw, nm := cell(t, tb, 3, 4), cell(t, tb, 5, 4); nm >= sw {
		t.Fatalf("warm detours: agas-nm %v not under agas-sw %v", nm, sw)
	}
}

func TestF15LatencyShape(t *testing.T) {
	tb := mustRun(t, "F15")
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want one per mode", len(tb.Rows))
	}
	// Rows follow the canonical sweep order: pgas, agas-sw, agas-nm.
	// Percentiles are monotone within each row.
	for r := 0; r < len(tb.Rows); r++ {
		p50, p95, p99 := cell(t, tb, r, 2), cell(t, tb, r, 3), cell(t, tb, r, 4)
		if !(p50 <= p95 && p95 <= p99) {
			t.Fatalf("row %d: percentiles not monotone: %v %v %v", r, p50, p95, p99)
		}
		if cell(t, tb, r, 1) == 0 {
			t.Fatalf("row %d: no parcel executions recorded", r)
		}
	}
	// PGAS never migrates; the AGAS modes must record migration time.
	if cell(t, tb, 0, 7) != 0 {
		t.Fatal("pgas recorded a migration")
	}
	if cell(t, tb, 1, 7) == 0 || cell(t, tb, 2, 7) == 0 {
		t.Fatal("agas rows missing migration latency")
	}
	// The tail story: post-migration repair in host software costs more
	// than in-NIC repair, and the clean PGAS baseline has the best tail.
	pg, sw, nm := cell(t, tb, 0, 4), cell(t, tb, 1, 4), cell(t, tb, 2, 4)
	if !(pg < nm && nm < sw) {
		t.Fatalf("exec p99 ordering broken: pgas=%v agas-sw=%v agas-nm=%v", pg, sw, nm)
	}
	if swPut, nmPut := cell(t, tb, 1, 5), cell(t, tb, 2, 5); swPut <= nmPut {
		t.Fatalf("put p99: agas-sw (%v) should exceed agas-nm (%v)", swPut, nmPut)
	}
}

func TestC1ChaosShape(t *testing.T) {
	tb := mustRun(t, "C1")
	// Quick: 3 modes × (baseline + one lossy plan) = 6 rows, every one
	// golden — faults must never leak into application-visible results.
	if got := len(tb.Rows); got != 6 {
		t.Fatalf("row count %d, want 6", got)
	}
	for r := 0; r < len(tb.Rows); r++ {
		if g := tb.Rows[r][2]; g != "yes" {
			t.Fatalf("row %d (%s, %s) not golden", r, tb.Rows[r][0], tb.Rows[r][1])
		}
	}
	// The lossy rows (odd index per mode pair) really exercised the fault
	// path: DES replays the same schedule, so at 5% drop over this
	// workload drops and retransmissions are guaranteed.
	for r := 1; r < len(tb.Rows); r += 2 {
		if dropped := cell(t, tb, r, 8); dropped == 0 {
			t.Fatalf("row %d: lossy plan dropped nothing", r)
		}
		if retrans := cell(t, tb, r, 4); retrans == 0 {
			t.Fatalf("row %d: drops occurred but nothing retransmitted", r)
		}
	}
	// Baseline rows: perfect fabric, zero degradation.
	for r := 0; r < len(tb.Rows); r += 2 {
		if cell(t, tb, r, 4) != 0 || cell(t, tb, r, 7) != 0 {
			t.Fatalf("row %d: baseline shows retransmits/abandons", r)
		}
	}
}

func TestC2RecoveryShape(t *testing.T) {
	tb := mustRun(t, "C2")
	// Quick: 3 modes × DES only. Every row must be golden — a
	// whole-node crash, recovery, and rejoin must leave the surviving
	// membership exactly where a never-faulted run lands.
	if got := len(tb.Rows); got != 3 {
		t.Fatalf("row count %d, want 3", got)
	}
	for r := 0; r < len(tb.Rows); r++ {
		row := tb.Rows[r]
		if row[2] != "yes" {
			t.Fatalf("row %d (%s/%s) not golden: %v", r, row[0], row[1], row)
		}
		if cell(t, tb, r, 3) != 1 || cell(t, tb, r, 4) != 1 {
			t.Fatalf("row %d: deaths/joins %s/%s, want 1/1", r, row[3], row[4])
		}
		// The kill really bit: suspicion probes ran, blocks re-homed,
		// traffic was fenced at the dead link, and nothing black-holed.
		if cell(t, tb, r, 5) == 0 || cell(t, tb, r, 6) == 0 {
			t.Fatalf("row %d: no suspicion or no re-homed blocks: %v", r, row)
		}
		if cell(t, tb, r, 8) == 0 {
			t.Fatalf("row %d: kill produced no down-link drops: %v", r, row)
		}
		if cell(t, tb, r, 10) != 0 {
			t.Fatalf("row %d: %s messages black-holed", r, row[10])
		}
	}
}

func TestF17ParScalingShape(t *testing.T) {
	tb := mustRun(t, "F17")
	// Within each rank-count group, the golden parcel counter must be
	// identical across every shard row (classic included) — that is the
	// determinism gate the CI scaling smoke replays at 256 localities.
	golden := map[float64]float64{}
	for r := 0; r < len(tb.Rows); r++ {
		ranks := cell(t, tb, r, 0)
		g := cell(t, tb, r, 3)
		if g <= 0 {
			t.Fatalf("row %d: no parcels ran", r)
		}
		if want, ok := golden[ranks]; ok && g != want {
			t.Fatalf("ranks=%v shards=%v: golden %v != %v — shard count leaked into behavior",
				ranks, cell(t, tb, r, 1), g, want)
		}
		golden[ranks] = g
		if ev := cell(t, tb, r, 2); ev < g {
			t.Fatalf("row %d: %v events for %v parcels", r, ev, g)
		}
	}
}

func TestF18DistanceCrossoverShape(t *testing.T) {
	tb := mustRun(t, "F18")
	if len(tb.Rows) != 3 {
		t.Fatalf("want 3 distance tiers, got %d", len(tb.Rows))
	}
	prevPGAS := 0.0
	for r := 0; r < len(tb.Rows); r++ {
		pgas, sw, nm := cell(t, tb, r, 2), cell(t, tb, r, 3), cell(t, tb, r, 4)
		// Direct cost grows with hop distance.
		if pgas <= prevPGAS {
			t.Fatalf("row %d: direct put cost %v not increasing with distance", r, pgas)
		}
		prevPGAS = pgas
		// Stale repair always costs more than a direct put, and the
		// host-forward detour (sw) must cost more than the in-network
		// forward (nm) at every distance — the crossover the network-
		// managed design exists to win.
		if sw <= pgas || nm <= pgas {
			t.Fatalf("row %d: stale costs (sw %v, nm %v) not above direct %v", r, sw, nm, pgas)
		}
		if nm >= sw {
			t.Fatalf("row %d: in-network forward %v not cheaper than host forward %v", r, nm, sw)
		}
	}
}

func TestF19RebalanceShape(t *testing.T) {
	tb := mustRun(t, "F19")
	// Rows: (agas-sw, agas-nm) × (policy off, policy on). Columns:
	// mode, policy, pre_ops_ms, post_ops_ms, imbalance, moves, repl,
	// detours.
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	for _, r := range []int{0, 2} {
		if m := cell(t, tb, r, 5); m != 0 {
			t.Fatalf("row %d: policy-off baseline migrated %v blocks", r, m)
		}
	}
	for _, r := range []int{1, 3} {
		if m := cell(t, tb, r, 5); m == 0 {
			t.Fatalf("row %d: policy made no moves", r)
		}
		if n := cell(t, tb, r, 6); n == 0 {
			t.Fatalf("row %d: policy never replicated the shared region", r)
		}
	}
	// The acceptance gate: under network-managed AGAS the policy's
	// post-shift steady state sustains at least 2x the static placement
	// (it re-converged after the regime change), and its serving load is
	// balanced to max/mean <= 1.3.
	offPost, onPost := cell(t, tb, 2, 3), cell(t, tb, 3, 3)
	if onPost < 2*offPost {
		t.Fatalf("agas-nm post-shift: policy %v not 2x static %v", onPost, offPost)
	}
	if offPre, onPre := cell(t, tb, 2, 2), cell(t, tb, 3, 2); onPre < 2*offPre {
		t.Fatalf("agas-nm pre-shift: policy %v not 2x static %v", onPre, offPre)
	}
	if imb := cell(t, tb, 3, 4); imb > 1.3 {
		t.Fatalf("agas-nm converged imbalance %v > 1.3", imb)
	}
	// The same migration churn that software AGAS repairs host-side
	// (stale caches after every policy move) is absorbed in-network by
	// the NIC-managed space.
	swDet, nmDet := cell(t, tb, 1, 7), cell(t, tb, 3, 7)
	if swDet == 0 {
		t.Fatal("agas-sw policy run shows no host repair detours")
	}
	if nmDet >= swDet {
		t.Fatalf("agas-nm detours %v not under agas-sw %v", nmDet, swDet)
	}
}

func mustRun(t *testing.T, id string) *stats.Table {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	tb := e.Run(quick())
	if len(tb.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return tb
}

func TestF20HealthShape(t *testing.T) {
	tb := mustRun(t, "F20")
	// Rows: retransmit-storm, migration-stall, hotspot-rebalance.
	// Columns: scenario, watchdog, onset_pulse, trip_pulse, latency,
	// bundle_events, in_window, recovered, detail.
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
	rows := tb.Rows
	for r, want := range []string{"retransmit-storm", "migration-stall", "hotspot-rebalance"} {
		if rows[r][0] != want {
			t.Fatalf("row %d scenario %q, want %q", r, rows[r][0], want)
		}
	}
	// The acceptance gate: each injected anomaly trips its matching
	// watchdog within <=2 pulse periods of the condition first holding,
	// the flight bundle's trace window contains the anomaly, and the
	// world recovers to ok after remediation.
	for _, r := range []int{0, 1} {
		if lat := cell(t, tb, r, 4); lat < 0 || lat > 2 {
			t.Fatalf("row %d: trip latency %v pulses, want [0,2]", r, lat)
		}
		if n := cell(t, tb, r, 5); n == 0 {
			t.Fatalf("row %d: flight bundle captured no events", r)
		}
		if rows[r][6] != "true" {
			t.Fatalf("row %d: anomaly events missing from the bundle window", r)
		}
	}
	for r := 0; r < 3; r++ {
		if rows[r][7] != "true" {
			t.Fatalf("row %d (%s): world did not recover", r, rows[r][0])
		}
	}
	// The rebalance row is the pulse-driven F19 scenario: the policy
	// must have acted (moves show up in the detail) with the hotspot
	// cleared before the run ended.
	if rows[2][1] != "heat-imbalance" {
		t.Fatalf("rebalance row watchdog %q", rows[2][1])
	}
}
