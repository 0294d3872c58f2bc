package runtime

import (
	"testing"
)

// TestDisabledLatencyHooksAllocateNothing pins the Config.Metrics=false
// contract: every protocol step's note — each public and note kind, and
// a membership step — is one branch on World.observed and allocates
// nothing.
func TestDisabledLatencyHooksAllocateNothing(t *testing.T) {
	w, err := NewWorld(Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	if w.observed || w.lat != nil {
		t.Fatal("latency state set without Config.Metrics or a tracer")
	}
	l := w.Locality(0)
	allocs := testing.AllocsPerRun(1000, func() {
		for k := TraceSend; k <= noteAbandon; k++ {
			l.note(k, 3, 7, 7)
		}
		w.noteMember(1, TraceMemberDead, 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled latency hooks allocate %v per run, want 0", allocs)
	}
	if w.Latencies().Enabled {
		t.Fatal("disabled latency state leaked observations")
	}
}

// TestLatencyHistogramsRecord exercises the enabled path end to end on
// the DES engine: parcel exec, put/get completion, and the four
// migration phases must all record.
func TestLatencyHistogramsRecord(t *testing.T) {
	w, err := NewWorld(Config{Ranks: 3, Mode: AGASNM, Engine: EngineDES, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	echo := w.Register("echo", func(c *Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(1)
	w.MustWait(w.Proc(0).Call(g, echo, nil))
	w.MustWait(w.Proc(0).Put(g, []byte{1, 2}))
	w.MustWait(w.Proc(0).Get(g, 2))
	w.MustWait(w.Proc(0).Migrate(g, 2))
	w.MustWait(w.Proc(0).Call(g, echo, nil))

	lat := w.Latencies()
	if !lat.Enabled {
		t.Fatal("latencies not enabled")
	}
	for _, p := range []LatPath{LatParcelExec, LatPutDone, LatGetDone,
		LatMigTransfer, LatMigUpdate, LatMigDrain, LatMigTotal} {
		l := lat.Path[p]
		if l.Count == 0 {
			t.Errorf("%v histogram empty", p)
		}
		if l.Count > 0 && (l.P50Ns > l.P99Ns || l.P99Ns > l.MaxNs) {
			t.Errorf("%v percentiles inconsistent: %+v", p, l)
		}
	}
	// Simulated durations must be positive: the DES clock advanced
	// between send and exec.
	if p50 := lat.Path[LatParcelExec].P50Ns; p50 <= 0 {
		t.Fatalf("parcel exec p50 = %d, want > 0", p50)
	}
	// The migration phases nest inside the total.
	if tot, tr := lat.Path[LatMigTotal].MaxNs, lat.Path[LatMigTransfer].MaxNs; tot < tr {
		t.Fatalf("mig total (%d) < transfer (%d)", tot, tr)
	}

	// StatsTable surfaces the percentile rows.
	tb := w.StatsTable()
	var found bool
	for _, row := range tb.Rows {
		if row[0] == "lat.parcel_exec.p99_ns" {
			found = true
		}
	}
	if !found {
		t.Fatal("StatsTable missing latency rows")
	}
}
