//go:build !race && !msgpoison

package netsim

import (
	"testing"

	"nmvgas/internal/gas"
)

// The race detector and the msgpoison build both defeat sync.Pool reuse,
// which the table push below recycles through.

// TestDESPortReceiveAllocatesNothing pins the driver's receive through the
// simulated NIC's port at zero allocations per arrival: host and DMA
// delivery, an in-network forward with its table push, and the push's
// table write on the source NIC, each run to the end on the engine.
func TestDESPortReceiveAllocatesNothing(t *testing.T) {
	h := newHarness(t, 4, true, Policy{}, 0)
	h.resident[1][10] = true
	h.resident[3][50] = true
	h.fab.NIC(2).InstallRoute(50, 3)
	nop := func(*Message) {}
	for _, n := range h.fab.NICs {
		n.HostDeliver, n.DMADeliver = nop, nop
	}
	host, dma, moved := msgFor(1, 10), msgFor(1, 10), msgFor(1, 50)
	dma.DMA = true
	moved.Src = 0
	arrive := func(rank int, m *Message) {
		n := h.fab.NIC(rank)
		n.Receive(n, nil, m)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		arrive(1, host)
		arrive(1, dma)
		moved.Dst, moved.Hops = 2, 0
		arrive(2, moved)
		h.eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per pass of DES-port receives, want 0", allocs)
	}
	at := func(rank int, c Counter) uint64 { return h.fab.NIC(rank).Stats[c] }
	if at(1, CntHostDelivered) == 0 || at(1, CntDMADelivered) == 0 || at(2, CntForwards) == 0 ||
		at(0, CntTableUpdatesRx) == 0 || at(3, CntHostDelivered) == 0 {
		t.Fatal("the pass did not exercise the paths")
	}
	if o, ok := peek(h.fab.NIC(0).Table, gas.BlockID(50)); !ok || o != 3 {
		t.Fatalf("source table after the push: %d,%v", o, ok)
	}
}
