package vgas_test

import (
	"bytes"
	"testing"

	"nmvgas/internal/trace"
	"nmvgas/vgas"
)

// These tests exercise the extension features end-to-end through the
// public API: async allocation, read-only replication, coalescing,
// tracing, topology, and diagnostics.

func TestFacadeAsyncAllocAndFree(t *testing.T) {
	w, err := vgas.NewWorld(vgas.Config{Ranks: 3, Mode: vgas.AGASNM})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	w.Start()
	lay := vgas.DecodeLayout(w.MustWait(w.Proc(1).AllocAsync(512, 6, vgas.DistCyclic)))
	if lay.NBlocks != 6 {
		t.Fatalf("layout %+v", lay)
	}
	w.MustWait(w.Proc(0).Put(lay.BlockAt(2), []byte{3}))
	got := w.MustWait(w.Proc(2).Get(lay.BlockAt(2), 1))
	if got[0] != 3 {
		t.Fatal("async allocation unusable")
	}
	w.MustWait(w.Proc(0).FreeAsync(lay))
	for r := 0; r < 3; r++ {
		if _, ok := w.Locality(r).Store().Get(lay.BlockAt(2).Block()); ok {
			t.Fatal("block survived FreeAsync")
		}
	}
}

func TestFacadeReplication(t *testing.T) {
	w, err := vgas.NewWorld(vgas.Config{Ranks: 4, Mode: vgas.AGASNM})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	w.Start()
	lay, err := w.AllocLocal(0, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.MustWait(w.Proc(0).Put(lay.BlockAt(0), []byte("ro")))
	if err := w.ReplicateLive(lay, w.Ranks()-1); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		got := w.MustWait(w.Proc(r).Get(lay.BlockAt(0), 2))
		if !bytes.Equal(got, []byte("ro")) {
			t.Fatalf("rank %d replica read %q", r, got)
		}
	}
}

func TestFacadeCoalescingAndTracing(t *testing.T) {
	w, err := vgas.NewWorld(vgas.Config{
		Ranks:    3,
		Mode:     vgas.AGASNM,
		Coalesce: vgas.CoalesceConfig{MaxParcels: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	ring := trace.Attach(w, 256)
	echo := w.Register("echo", func(c *vgas.Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	gate := w.NewAndGate(0, n)
	w.Proc(0).Run(func() {
		for i := 0; i < n; i++ {
			w.Locality(0).SendParcel(&vgas.Parcel{
				Action: echo, Target: lay.BlockAt(0),
				CAction: vgas.LCOSet, CTarget: gate.G,
			})
		}
	})
	w.MustWait(gate)
	if ring.CountKind(vgas.TraceSend) < n {
		t.Fatalf("trace saw %d sends", ring.CountKind(vgas.TraceSend))
	}
	if ring.CountKind(vgas.TraceExec) < n {
		t.Fatalf("trace saw %d execs", ring.CountKind(vgas.TraceExec))
	}
}

func TestFacadeTopologyAndDump(t *testing.T) {
	w, err := vgas.NewWorld(vgas.Config{
		Ranks:    8,
		Mode:     vgas.AGASNM,
		Topology: vgas.NewTwoTier(4, 2.0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	w.MustWait(w.Proc(0).Put(lay.BlockAt(7), []byte{1}))
	var sb bytes.Buffer
	if err := w.DumpState(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 {
		t.Fatal("empty dump")
	}
	if w.Stats().NetSent == 0 {
		t.Fatal("stats empty after remote put")
	}
}
