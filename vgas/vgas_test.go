package vgas_test

import (
	"bytes"
	"testing"

	"nmvgas/vgas"
)

// The facade tests double as compile-time checks that the public API
// surface stays wired to the implementation.

func TestFacadeQuickstart(t *testing.T) {
	w, err := vgas.NewWorld(vgas.Config{Ranks: 4, Mode: vgas.AGASNM})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	hello := w.Register("hello", func(c *vgas.Ctx) { c.Continue(c.P.Payload) })
	w.Start()
	lay, err := w.AllocCyclic(0, 4096, 8)
	if err != nil {
		t.Fatal(err)
	}
	reply := w.MustWait(w.Proc(0).Call(lay.BlockAt(3), hello, []byte("hi")))
	if !bytes.Equal(reply, []byte("hi")) {
		t.Fatalf("reply %q", reply)
	}
}

func TestFacadeMigration(t *testing.T) {
	w, err := vgas.NewWorld(vgas.Config{Ranks: 3, Mode: vgas.AGASNM})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	w.Start()
	lay, err := w.AllocLocal(0, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(0)
	w.MustWait(w.Proc(0).Put(g, []byte{7}))
	st := w.MustWait(w.Proc(0).Migrate(g, 2))
	if vgas.MigrateStatus(st) != vgas.MigrateOK {
		t.Fatalf("status %d", vgas.MigrateStatus(st))
	}
	got := w.MustWait(w.Proc(1).Get(g, 1))
	if got[0] != 7 {
		t.Fatal("data lost")
	}
}

func TestFacadeReductionHelpers(t *testing.T) {
	if vgas.DecodeI64(vgas.EncodeI64(-5)) != -5 {
		t.Fatal("i64 helpers broken")
	}
	acc := vgas.SumI64(nil, vgas.EncodeI64(2))
	acc = vgas.SumI64(acc, vgas.EncodeI64(3))
	if vgas.DecodeI64(acc) != 5 {
		t.Fatal("SumI64 broken")
	}
}

func TestFacadeDefaults(t *testing.T) {
	if vgas.DefaultModel().Latency == 0 {
		t.Fatal("model default empty")
	}
	if p := (vgas.Policy{}); p.NackToHost || p.NoPushUpdates {
		t.Fatal("zero policy is not the paper's design")
	}
	if vgas.PGAS.String() != "pgas" || vgas.AGASNM.String() != "agas-nm" {
		t.Fatal("mode constants miswired")
	}
}
