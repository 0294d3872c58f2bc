package runtime

import (
	"strings"
	"testing"
)

func TestDumpStateShowsMigrationInFlight(t *testing.T) {
	w := testWorld(t, Config{Ranks: 3, Mode: AGASNM, Engine: EngineDES})
	w.Start()
	lay, err := w.AllocLocal(1, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(0)
	mig := w.Proc(0).Migrate(g, 2)
	w.Engine().RunUntil(func() bool { return w.Locality(1).Moving(g.Block()) })
	// Park a put behind the move so the queue depth is visible.
	put := w.Proc(2).Put(g, []byte{1})
	w.Engine().RunUntil(func() bool { return w.RankStats(1).Loc.Queued > 0 })

	var sb strings.Builder
	if err := w.DumpState(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"locality 0:", "locality 1:", "moving block", "-> rank 2", "queued)", "engine: now="} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	w.MustWait(mig)
	w.MustWait(put)

	sb.Reset()
	if err := w.DumpState(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "moving block") {
		t.Fatal("dump still shows a migration after completion")
	}
}

func TestDumpStateQuiescentWorld(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASSW, Engine: EngineGo})
	w.Start()
	var sb strings.Builder
	if err := w.DumpState(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "locality 1: blocks=1 moving=0 ops_outstanding=0") {
		t.Fatalf("unexpected quiescent dump:\n%s", sb.String())
	}
}
