package runtime

import (
	"testing"
)

// TestDisabledLatencyHooksAllocateNothing pins the Config.Metrics=false
// contract: every latency hook is a single nil check, adding zero
// allocations to the hot paths it instruments.
func TestDisabledLatencyHooksAllocateNothing(t *testing.T) {
	w, err := NewWorld(Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	if w.lat != nil {
		t.Fatal("latency state allocated without Config.Metrics")
	}
	l := w.Locality(0)
	allocs := testing.AllocsPerRun(1000, func() {
		l.latStart(7)
		l.latParcelExec(7)
		l.latOpDone(7, true)
		l.latNackRepair(7)
		l.latMigMark(3, migPin)
		l.latMigMark(3, migDone)
	})
	if allocs != 0 {
		t.Fatalf("disabled latency hooks allocate %v per run, want 0", allocs)
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
	checks := []struct {
		name string
		l    LatencySummary
	}{
		{"parcel_exec", lat.ParcelExec},
		{"put", lat.PutDone},
		{"get", lat.GetDone},
		{"mig_transfer", lat.MigTransfer},
		{"mig_update", lat.MigUpdate},
		{"mig_drain", lat.MigDrain},
		{"mig_total", lat.MigTotal},
	}
	for _, c := range checks {
		if c.l.Count == 0 {
			t.Errorf("%s histogram empty", c.name)
		}
		if c.l.Count > 0 && (c.l.P50Ns > c.l.P99Ns || c.l.P99Ns > c.l.MaxNs) {
			t.Errorf("%s percentiles inconsistent: %+v", c.name, c.l)
		}
	}
	// Simulated durations must be positive: the DES clock advanced
	// between send and exec.
	if lat.ParcelExec.P50Ns <= 0 {
		t.Fatalf("parcel exec p50 = %d, want > 0", lat.ParcelExec.P50Ns)
	}
	// The migration phases nest inside the total.
	if lat.MigTotal.MaxNs < lat.MigTransfer.MaxNs {
		t.Fatalf("mig total (%d) < transfer (%d)", lat.MigTotal.MaxNs, lat.MigTransfer.MaxNs)
	}

	// StatsTable surfaces the percentile rows.
	tb := w.StatsTable()
	var found bool
	for _, row := range tb.Rows() {
		if row[0] == "lat.parcel_exec.p99_ns" {
			found = true
		}
	}
	if !found {
		t.Fatal("StatsTable missing latency rows")
	}
}
