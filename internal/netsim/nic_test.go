package netsim

import (
	"testing"

	"nmvgas/internal/gas"
)

func TestForwardingLoopBoundedNack(t *testing.T) {
	// Two NICs with authoritative routes pointing at each other and the
	// block resident nowhere: a broken ownership protocol. Instead of
	// bouncing forever (or panicking), the hop budget expires and the
	// sender gets a loop NACK carrying the home as the owner hint.
	h := newHarness(t, 3, true, Policy{NoPushUpdates: true}, 0)
	h.fab.NIC(1).InstallRoute(50, 2)
	h.fab.NIC(2).InstallRoute(50, 1)
	h.fab.NIC(0).Send(&Message{Src: 0, Dst: ByGVA, Target: gas.New(1, 50, 0), Wire: 32})
	h.eng.Run()
	if len(h.hostRx[0]) != 1 {
		t.Fatalf("sender host got %d messages, want 1 loop NACK", len(h.hostRx[0]))
	}
	nk := h.hostRx[0][0]
	if nk.Ctl != CtlNackLoop {
		t.Fatalf("Ctl = %v, want CtlNackLoop", nk.Ctl)
	}
	if nk.Owner != 1 {
		t.Fatalf("owner hint %d, want home 1", nk.Owner)
	}
	if nk.Nacked == nil || nk.Nacked.Block != 50 {
		t.Fatalf("NACK does not carry the original message: %+v", nk.Nacked)
	}
	loops := h.fab.NIC(1).Stats[CntLoopNacks] + h.fab.NIC(2).Stats[CntLoopNacks]
	if loops != 1 {
		t.Fatalf("LoopNacks = %d, want 1", loops)
	}
}

func TestMissingHostHandlerPanics(t *testing.T) {
	eng := NewEngine()
	fab := NewFabric(eng, FabricConfig{Ranks: 2, Model: DefaultModel()})
	fab.NIC(1).Resident = func(gas.BlockID) bool { return false }
	// No HostDeliver installed on rank 1.
	fab.NIC(0).Send(&Message{Src: 0, Dst: 1, Wire: 16})
	defer func() {
		if recover() == nil {
			t.Fatal("delivery without a handler did not panic")
		}
	}()
	eng.Run()
}

func TestMissingDMAHandlerPanics(t *testing.T) {
	eng := NewEngine()
	fab := NewFabric(eng, FabricConfig{Ranks: 2, Model: DefaultModel()})
	fab.NIC(1).Resident = func(gas.BlockID) bool { return true }
	fab.NIC(1).HostDeliver = func(*Message) {}
	fab.NIC(0).Send(&Message{Src: 0, Dst: 1, Target: gas.New(1, 9, 0), DMA: true, Wire: 64})
	defer func() {
		if recover() == nil {
			t.Fatal("DMA without a handler did not panic")
		}
	}()
	eng.Run()
}

func TestTransmitToBadRankPanics(t *testing.T) {
	h := newHarness(t, 2, false, Policy{}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("bad destination did not panic")
		}
	}()
	h.fab.NIC(0).Send(&Message{Src: 0, Dst: 7, Wire: 16})
}

func TestCtlUpdatesRespectTableCapacity(t *testing.T) {
	// Pushed table updates land in the bounded table and evict LRU-style
	// like any other entry.
	h := newHarness(t, 2, true, Policy{}, 2)
	for b := gas.BlockID(1); b <= 5; b++ {
		h.fab.NIC(1).Send(&Message{
			Ctl: CtlTableUpdate, Src: 1, Dst: 0,
			Target: gas.New(0, b, 0), Owner: 1, Wire: 32,
		})
	}
	h.eng.Run()
	nic := h.fab.NIC(0)
	if nic.Table.Len() != 2 {
		t.Fatalf("table len %d, want capacity 2", nic.Table.Len())
	}
	if _, ok := peek(nic.Table, 5); !ok {
		t.Fatal("newest pushed entry missing")
	}
	if nic.Stats[CntTableUpdatesRx] != 5 {
		t.Fatalf("update counter %d", nic.Stats[CntTableUpdatesRx])
	}
}

func TestRouteAndDrop(t *testing.T) {
	h := newHarness(t, 2, true, Policy{}, 0)
	nic := h.fab.NIC(0)
	nic.InstallRoute(7, 1)
	if o, ok := nic.Route(7); !ok || o != 1 {
		t.Fatalf("Route = %d,%v", o, ok)
	}
	nic.ClearResident(7)
	if _, ok := nic.Route(7); ok {
		t.Fatal("route survived ClearResident")
	}
}

func TestDefaultWireSizeApplied(t *testing.T) {
	h := newHarness(t, 2, false, Policy{}, 0)
	h.fab.NIC(0).Send(&Message{Src: 0, Dst: 1}) // Wire unset
	h.eng.Run()
	st := h.fab.NIC(0).Stats
	if st[CntBytesTx] != wireHeader {
		t.Fatalf("default wire accounting %d, want %d", st[CntBytesTx], wireHeader)
	}
}

func TestNackPolicyWithRoutingStillDelivers(t *testing.T) {
	// GVARouting with everything switched off (no forwarding, no pushes):
	// stale traffic NACKs; direct traffic still flows.
	h := newHarness(t, 2, true, Policy{NackToHost: true, NoPushUpdates: true}, 0)
	h.resident[1][9] = true
	h.fab.NIC(0).Send(&Message{Src: 0, Dst: ByGVA, Target: gas.New(1, 9, 0), Wire: 16})
	h.eng.Run()
	if len(h.hostRx[1]) != 1 {
		t.Fatal("direct delivery broken under zero policy")
	}
}
