package trace

import (
	"testing"

	"nmvgas/internal/runtime"
)

func TestRingRetainsInOrder(t *testing.T) {
	r := newRing(4, 1)
	for i := 0; i < 3; i++ {
		r.Record(runtime.TraceEvent{Rank: i})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("len %d", len(evs))
	}
	for i, ev := range evs {
		if ev.Rank != i {
			t.Fatalf("order broken: %v", evs)
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := newRing(3, 1)
	for i := 0; i < 7; i++ {
		r.Record(runtime.TraceEvent{Rank: i})
	}
	if r.Total() != 7 {
		t.Fatalf("total %d", r.Total())
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d", len(evs))
	}
	for i, want := range []int{4, 5, 6} {
		if evs[i].Rank != want {
			t.Fatalf("ring order %v", evs)
		}
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := newRing(0, 1)
	r.Record(runtime.TraceEvent{Rank: 9})
	if len(r.Events()) != 1 {
		t.Fatal("zero-capacity ring lost the event")
	}
}

func TestAttachObservesProtocol(t *testing.T) {
	w, err := runtime.NewWorld(runtime.Config{Ranks: 3, Mode: runtime.AGASNM, Engine: runtime.EngineDES})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	ring := Attach(w, 1024)
	echo := w.Register("echo", func(c *runtime.Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	w.MustWait(w.Proc(0).Call(lay.BlockAt(1), echo, nil))
	w.MustWait(w.Proc(0).Migrate(lay.BlockAt(1), 2))
	w.MustWait(w.Proc(0).Call(lay.BlockAt(1), echo, nil))

	if ring.CountKind(runtime.TraceSend) == 0 || ring.CountKind(runtime.TraceExec) == 0 {
		t.Fatal("no send/exec events observed")
	}
	if ring.CountKind(runtime.TraceMigrateStart) != 1 || ring.CountKind(runtime.TraceMigrateDone) != 1 {
		t.Fatalf("migration events: start=%d done=%d",
			ring.CountKind(runtime.TraceMigrateStart), ring.CountKind(runtime.TraceMigrateDone))
	}
	// The migrate-done event names the destination.
	done := ring.Filter(func(ev runtime.TraceEvent) bool { return ev.Kind == runtime.TraceMigrateDone })
	if done[0].Info != 2 {
		t.Fatalf("migrate-done info %d", done[0].Info)
	}
}

func TestTraceKindStrings(t *testing.T) {
	kinds := []runtime.TraceKind{
		runtime.TraceSend, runtime.TraceExec, runtime.TraceHostForward,
		runtime.TraceHostNack, runtime.TraceNICNack, runtime.TraceMigrateStart,
		runtime.TraceMigrateDone, runtime.TraceQueued,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("bad kind string %q", s)
		}
		seen[s] = true
	}
	if runtime.TraceKind(99).String() != "unknown" {
		t.Fatal("unknown kind string")
	}
}

func TestQueuedEventsDuringMigration(t *testing.T) {
	w, err := runtime.NewWorld(runtime.Config{Ranks: 3, Mode: runtime.AGASSW, Engine: runtime.EngineDES})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	ring := Attach(w, 4096)
	w.Start()
	lay, err := w.AllocLocal(1, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(0)
	mig := w.Proc(0).Migrate(g, 2)
	w.Engine().RunUntil(func() bool { return w.Locality(1).Moving(g.Block()) })
	put := w.Proc(0).Put(g, []byte{1})
	w.MustWait(mig)
	w.MustWait(put)
	if ring.CountKind(runtime.TraceQueued) == 0 {
		t.Fatal("no queued events despite a mid-migration put")
	}
}
