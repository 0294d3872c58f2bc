package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"nmvgas/internal/netsim"
	"nmvgas/internal/runtime"
)

func flightWorld(t *testing.T, cfg FlightConfig) (*runtime.World, *Flight) {
	t.Helper()
	w, err := runtime.NewWorld(runtime.Config{Ranks: 2, Mode: runtime.AGASNM, Engine: runtime.EngineDES})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	return w, NewFlight(w, cfg)
}

// TestFlightWraparoundWindow: a ring fed past its capacity retains
// exactly the tail, and the snapshot's trace window reflects it.
func TestFlightWraparoundWindow(t *testing.T) {
	_, f := flightWorld(t, FlightConfig{Capacity: 8})
	const total = 50
	for i := 0; i < total; i++ {
		f.Record(runtime.TraceEvent{Time: netsim.VTime(i), Rank: i % 2, Info: uint64(i)})
	}
	b := f.Snapshot("test")
	if b.TraceTotal != total {
		t.Fatalf("total %d, want %d", b.TraceTotal, total)
	}
	if b.TraceEvents == 0 || b.TraceEvents > 8 {
		t.Fatalf("retained %d events, want (0,8]", b.TraceEvents)
	}
	// The retained window is the newest tail: every kept Info must be
	// from the last Capacity records.
	evs := f.Ring().Events()
	if len(evs) != b.TraceEvents {
		t.Fatalf("snapshot says %d events, ring has %d", b.TraceEvents, len(evs))
	}
	for _, ev := range evs {
		if ev.Info < total-8 {
			t.Fatalf("stale event %d survived wraparound (window starts at %d)", ev.Info, total-8)
		}
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatalf("merged window out of order at %d: %v", i, evs)
		}
	}
	if !json.Valid(b.Trace) {
		t.Fatal("bundle trace is not valid JSON")
	}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("bundle is not valid JSON")
	}
}

// TestFlightSampling: SampleShift keeps 1 in 2^shift events while
// counting every one.
func TestFlightSampling(t *testing.T) {
	_, f := flightWorld(t, FlightConfig{Capacity: 1024, SampleShift: 2})
	for i := 0; i < 400; i++ {
		f.Record(runtime.TraceEvent{Rank: i % 2})
	}
	kept := len(f.Ring().Events())
	if kept != 100 {
		t.Fatalf("kept %d of 400 at shift 2, want 100", kept)
	}
}

// TestFlightRecordAllocatesNothing pins the always-on cost: once the
// ring is warm, the record path performs zero allocations.
func TestFlightRecordAllocatesNothing(t *testing.T) {
	_, f := flightWorld(t, FlightConfig{Capacity: 64})
	ev := runtime.TraceEvent{Rank: 1, Info: 7}
	for i := 0; i < 256; i++ {
		f.Record(ev)
	}
	if allocs := testing.AllocsPerRun(1000, func() { f.Record(ev) }); allocs != 0 {
		t.Fatalf("flight record allocates %v per event, want 0", allocs)
	}
}

// TestFlightConcurrentRecordAndDump is the -race stress: writers on
// every rank race snapshot captures and trip-history reads.
func TestFlightConcurrentRecordAndDump(t *testing.T) {
	_, f := flightWorld(t, FlightConfig{Capacity: 128})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.Record(runtime.TraceEvent{Time: netsim.VTime(i), Rank: r % 2, Info: uint64(i)})
				i++
			}
		}(r)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		b := f.Snapshot("stress")
		if !json.Valid(b.Trace) {
			t.Error("snapshot trace invalid under concurrency")
			break
		}
		_ = f.Bundles()
	}
	close(stop)
	wg.Wait()
}

// TestFlightTripCapture: a watchdog escalation must produce a retained
// bundle whose trace window contains the anomaly's events and whose
// health report names the tripped monitor.
func TestFlightTripCapture(t *testing.T) {
	w, err := runtime.NewWorld(runtime.Config{
		Ranks: 4, Mode: runtime.AGASNM, Engine: runtime.EngineDES,
		Pulse: runtime.PulseConfig{
			Enabled: true, Period: 20 * netsim.Microsecond,
			Watchdogs: runtime.WatchdogConfig{StallWarnPulses: 2, StallCriticalPulses: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	f := NewFlight(w, FlightConfig{Capacity: 512})
	f.Arm()
	w.Start()
	lay, err := w.AllocCyclic(0, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(1)
	w.Proc(0).PutWait(g, []byte{0xAB})

	release := w.InjectMigrationStall()
	fut := w.Proc(0).Migrate(g, 3)
	if !w.AwaitHealth(runtime.WatchCritical, 2*time.Second) {
		t.Fatalf("stall never went critical: %+v", w.Health())
	}
	release()
	if st := runtime.MigrateStatus(w.MustWait(fut)); st != runtime.MigrateOK {
		t.Fatalf("migrate status %d", st)
	}

	bundles := f.Bundles()
	if len(bundles) == 0 {
		t.Fatal("no trip bundle captured")
	}
	b := f.Latest()
	if b.Trigger != "watchdog:"+runtime.WatchMigrationStall {
		t.Fatalf("trigger %q", b.Trigger)
	}
	if b.Level != runtime.WatchCritical {
		t.Fatalf("bundle level %v", b.Level)
	}
	if !bytes.Contains(b.Trace, []byte("migrate-start")) {
		t.Fatal("anomaly window lost: no migrate-start in bundle trace")
	}
	if len(b.Members) != 4 {
		t.Fatalf("members %v", b.Members)
	}
	found := false
	for _, st := range b.Health.Watchdogs {
		if st.Name == runtime.WatchMigrationStall && st.Level == runtime.WatchCritical {
			found = true
		}
	}
	if !found {
		t.Fatalf("bundle health does not show the trip: %+v", b.Health.Watchdogs)
	}
}
