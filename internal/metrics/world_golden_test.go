package metrics

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nmvgas/internal/netsim"
	"nmvgas/internal/runtime"
)

// TestPublishWorldExpositionGolden holds PublishWorld's whole exposition
// — every series name, help text, kind, label and value — to the text
// recorded in testdata/world.prom at the commit before the world-level
// series came from the runtime's counter list (631061b). The world runs
// on DES under drops, duplicates, reordering and table loss, with
// replicas, the heat sampler and Metrics on, and it loses and re-admits
// a rank, so the fault, replica, heat, membership and latency series all
// carry nonzero values.
func TestPublishWorldExpositionGolden(t *testing.T) {
	w, err := runtime.NewWorld(runtime.Config{
		Ranks: 4, Mode: runtime.AGASNM, Engine: runtime.EngineDES, Seed: 7,
		Metrics: true, Heat: runtime.HeatConfig{Enabled: true},
		Faults: netsim.FaultPlan{Drop: 0.05, Duplicate: 0.02, Reorder: true, TableLoss: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	echo := w.Register("echo", func(c *runtime.Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 8; i++ {
		g := lay.BlockAt(i)
		w.MustWait(w.Proc(int(i)%4).Call(g, echo, nil))
		w.MustWait(w.Proc(0).Put(g, []byte{byte(i), 1, 2, 3}))
	}
	for i := uint32(0); i < 4; i++ {
		w.MustWait(w.Proc(0).Migrate(lay.BlockAt(i), (int(i)+2)%4))
		w.MustWait(w.Proc(3).Call(lay.BlockAt(i), echo, nil))
	}
	if err := w.ReplicateLive(lay, 2); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		for i := uint32(0); i < 8; i++ {
			w.MustWait(w.Proc(r).Get(lay.BlockAt(i), 4))
		}
	}
	w.MustWait(w.Proc(1).Put(lay.BlockAt(5), []byte{9, 9}))
	w.MustWait(w.Proc(2).Get(lay.BlockAt(5), 2))
	// A crash and a rejoin move the membership and per-rank fencing series.
	w.Kill(3)
	w.MustWait(w.Proc(0).Put(lay.BlockAt(3), []byte{7}))
	if !w.AwaitMember(3, runtime.MemberDead, 20*time.Second) {
		t.Fatalf("rank 3 never declared dead: %+v", w.MembershipStats())
	}
	if err := w.Join(3); err != nil {
		t.Fatal(err)
	}
	if !w.AwaitMember(3, runtime.MemberAlive, 20*time.Second) {
		t.Fatal("rank 3 never rejoined")
	}
	w.MustWait(w.Proc(3).Get(lay.BlockAt(3), 1))
	w.Drain()

	reg := NewRegistry()
	PublishWorld(reg, w).Refresh()
	var got bytes.Buffer
	if err := reg.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "world.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("exposition moved from testdata/world.prom:\n%s", got.String())
	}
}
