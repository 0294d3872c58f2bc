package netsim

import (
	"testing"

	"nmvgas/internal/gas"
)

// testFabric builds a fabric where residency and deliveries are driven by
// simple maps, standing in for the runtime.
type testHarness struct {
	eng      *Engine
	fab      *Fabric
	resident []map[gas.BlockID]bool
	hostRx   [][]*Message
	dmaRx    [][]*Message
}

func newHarness(t *testing.T, ranks int, routing bool, policy Policy, tableCap int) *testHarness {
	t.Helper()
	h := &testHarness{eng: NewEngine()}
	h.fab = NewFabric(h.eng, FabricConfig{
		Ranks:       ranks,
		Model:       DefaultModel(),
		GVARouting:  routing,
		Policy:      policy,
		NICTableCap: tableCap,
	})
	h.resident = make([]map[gas.BlockID]bool, ranks)
	h.hostRx = make([][]*Message, ranks)
	h.dmaRx = make([][]*Message, ranks)
	for r := 0; r < ranks; r++ {
		r := r
		h.resident[r] = make(map[gas.BlockID]bool)
		nic := h.fab.NIC(r)
		nic.Resident = func(b gas.BlockID) bool { return h.resident[r][b] }
		nic.HostDeliver = func(m *Message) { h.hostRx[r] = append(h.hostRx[r], m) }
		nic.DMADeliver = func(m *Message) { h.dmaRx[r] = append(h.dmaRx[r], m) }
	}
	return h
}

func TestFabricDirectDelivery(t *testing.T) {
	h := newHarness(t, 2, false, Policy{}, 0)
	m := &Message{Kind: 9, Dst: 1, Wire: 64}
	h.fab.NIC(0).Send(m)
	h.eng.Run()
	if len(h.hostRx[1]) != 1 || h.hostRx[1][0].Kind != 9 {
		t.Fatalf("rank 1 host got %v", h.hostRx[1])
	}
	if h.eng.Now() <= 0 {
		t.Fatal("delivery took no simulated time")
	}
	// One-way time = tx occupancy + latency.
	model := DefaultModel()
	want := model.TxTime(64) + model.Latency
	if h.eng.Now() != want {
		t.Fatalf("delivery at %v, want %v", h.eng.Now(), want)
	}
}

func TestFabricLargerMessagesTakeLonger(t *testing.T) {
	h := newHarness(t, 2, false, Policy{}, 0)
	h.fab.NIC(0).Send(&Message{Dst: 1, Wire: 64})
	h.eng.Run()
	small := h.eng.Now()

	h2 := newHarness(t, 2, false, Policy{}, 0)
	h2.fab.NIC(0).Send(&Message{Dst: 1, Wire: 64 * 1024})
	h2.eng.Run()
	if h2.eng.Now() <= small {
		t.Fatalf("64KiB (%v) not slower than 64B (%v)", h2.eng.Now(), small)
	}
}

func TestFabricTxOccupancySerializes(t *testing.T) {
	// Two back-to-back sends from one NIC must not overlap on the wire:
	// the second arrives at least TxTime later than the first.
	h := newHarness(t, 2, false, Policy{}, 0)
	var arrivals []VTime
	h.fab.NIC(1).HostDeliver = func(m *Message) { arrivals = append(arrivals, h.eng.Now()) }
	h.fab.NIC(0).Send(&Message{Dst: 1, Wire: 4096})
	h.fab.NIC(0).Send(&Message{Dst: 1, Wire: 4096})
	h.eng.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	model := DefaultModel()
	if gap := arrivals[1] - arrivals[0]; gap < model.TxTime(4096) {
		t.Fatalf("second arrival only %v after first, want >= %v", gap, model.TxTime(4096))
	}
}

func TestFabricGVARoutedToResidentHome(t *testing.T) {
	h := newHarness(t, 4, true, Policy{}, 0)
	target := gas.New(2, 50, 0)
	h.resident[2][50] = true
	h.fab.NIC(0).Send(&Message{Dst: ByGVA, Target: target, Wire: 64})
	h.eng.Run()
	if len(h.hostRx[2]) != 1 {
		t.Fatalf("home rank got %d messages", len(h.hostRx[2]))
	}
	if h.hostRx[2][0].Hops != 0 {
		t.Fatal("direct home delivery should not count forwards")
	}
}

func TestFabricInNetworkForwardAfterMigration(t *testing.T) {
	h := newHarness(t, 4, true, Policy{}, 0)
	target := gas.New(2, 50, 0)
	// Block 50 migrated from home 2 to rank 3: home NIC knows, data at 3.
	h.fab.NIC(2).InstallRoute(50, 3)
	h.resident[3][50] = true

	h.fab.NIC(0).Send(&Message{Dst: ByGVA, Target: target, Wire: 64})
	h.eng.Run()
	if len(h.hostRx[3]) != 1 {
		t.Fatalf("new owner got %d messages", len(h.hostRx[3]))
	}
	if h.hostRx[3][0].Hops != 1 {
		t.Fatalf("Hops = %d, want 1", h.hostRx[3][0].Hops)
	}
	if h.fab.NIC(2).Stats[CntForwards] != 1 {
		t.Fatalf("home NIC forwards = %d", h.fab.NIC(2).Stats[CntForwards])
	}
	if len(h.hostRx[2]) != 0 {
		t.Fatal("home host must not be involved in an in-network forward")
	}
	// PushUpdates: source NIC learned the new owner.
	if o, ok := peek(h.fab.NIC(0).Table, 50); !ok || o != 3 {
		t.Fatalf("source NIC table entry = %d,%v, want 3", o, ok)
	}
	// A second send now goes direct (no forward).
	h.fab.NIC(0).Send(&Message{Dst: ByGVA, Target: target, Wire: 64})
	h.eng.Run()
	if h.fab.NIC(2).Stats[CntForwards] != 1 {
		t.Fatal("second send still bounced through home")
	}
	if len(h.hostRx[3]) != 2 {
		t.Fatalf("new owner got %d messages total", len(h.hostRx[3]))
	}
}

func TestFabricNoPushUpdatesKeepsBouncing(t *testing.T) {
	pol := Policy{NoPushUpdates: true}
	h := newHarness(t, 4, true, pol, 0)
	target := gas.New(2, 50, 0)
	h.fab.NIC(2).InstallRoute(50, 3)
	h.resident[3][50] = true

	for i := 0; i < 3; i++ {
		h.fab.NIC(0).Send(&Message{Dst: ByGVA, Target: target, Wire: 64})
	}
	h.eng.Run()
	if h.fab.NIC(2).Stats[CntForwards] != 3 {
		t.Fatalf("forwards = %d, want 3 (no pushed updates)", h.fab.NIC(2).Stats[CntForwards])
	}
	if _, ok := peek(h.fab.NIC(0).Table, 50); ok {
		t.Fatal("source table updated despite PushUpdates=false")
	}
}

func TestFabricNackPolicy(t *testing.T) {
	pol := Policy{NackToHost: true, NoPushUpdates: true}
	h := newHarness(t, 4, true, pol, 0)
	target := gas.New(2, 50, 0)
	h.fab.NIC(2).InstallRoute(50, 3)
	h.resident[3][50] = true

	orig := &Message{Kind: 7, Dst: ByGVA, Target: target, Wire: 64}
	h.fab.NIC(0).Send(orig)
	h.eng.Run()
	if len(h.hostRx[0]) != 1 {
		t.Fatalf("source host got %d messages", len(h.hostRx[0]))
	}
	nk := h.hostRx[0][0]
	if nk.Ctl != CtlNack || nk.Owner != 3 || nk.Nacked == nil || nk.Nacked.Kind != 7 {
		t.Fatalf("bad NACK %+v", nk)
	}
	if h.fab.NIC(2).Stats[CntNacks] != 1 {
		t.Fatalf("nacks = %d", h.fab.NIC(2).Stats[CntNacks])
	}
}

func TestFabricDMADelivery(t *testing.T) {
	h := newHarness(t, 2, true, Policy{}, 0)
	target := gas.New(1, 9, 0)
	h.resident[1][9] = true
	h.fab.NIC(0).Send(&Message{Dst: ByGVA, Target: target, DMA: true, Wire: 4096})
	h.eng.Run()
	if len(h.dmaRx[1]) != 1 {
		t.Fatalf("DMA deliveries = %d", len(h.dmaRx[1]))
	}
	if len(h.hostRx[1]) != 0 {
		t.Fatal("DMA must bypass the host")
	}
}

func TestFabricDMAFaultOnDumbNIC(t *testing.T) {
	// Software-managed mode: stale one-sided op reaches a dumb NIC whose
	// block moved away; the host must be interrupted.
	h := newHarness(t, 3, false, Policy{}, 0)
	target := gas.New(1, 9, 0)
	// Not resident on 1 (moved to 2), NIC knows nothing.
	h.fab.NIC(0).Send(&Message{Dst: 1, Target: target, DMA: true, Wire: 256})
	h.eng.Run()
	if len(h.hostRx[1]) != 1 {
		t.Fatalf("host fault deliveries = %d", len(h.hostRx[1]))
	}
	if len(h.dmaRx[1]) != 0 {
		t.Fatal("DMA delivered against a non-resident block")
	}
}

func TestFabricChainedTombstones(t *testing.T) {
	// Block migrated twice: home→3, then 3→1. Source knows nothing; home
	// says 3; 3's tombstone says 1.
	h := newHarness(t, 4, true, Policy{}, 0)
	target := gas.New(2, 50, 0)
	h.fab.NIC(2).InstallRoute(50, 3)
	h.fab.NIC(3).InstallRoute(50, 1)
	h.resident[1][50] = true
	h.fab.NIC(0).Send(&Message{Dst: ByGVA, Target: target, Wire: 64})
	h.eng.Run()
	if len(h.hostRx[1]) != 1 {
		t.Fatalf("final owner deliveries = %d", len(h.hostRx[1]))
	}
	if h.hostRx[1][0].Hops != 2 {
		t.Fatalf("Hops = %d, want 2", h.hostRx[1][0].Hops)
	}
}

func TestFabricUnknownBlockAtHomeGoesToHost(t *testing.T) {
	h := newHarness(t, 2, true, Policy{}, 0)
	target := gas.New(1, 99, 0) // never allocated
	h.fab.NIC(0).Send(&Message{Dst: ByGVA, Target: target, Wire: 64})
	h.eng.Run()
	if len(h.hostRx[1]) != 1 {
		t.Fatal("unallocated-block traffic must surface at the home host")
	}
}

func TestFabricRankAddressedNullTarget(t *testing.T) {
	h := newHarness(t, 2, true, Policy{}, 0)
	h.fab.NIC(0).Send(&Message{Dst: 1, Wire: 16})
	h.eng.Run()
	if len(h.hostRx[1]) != 1 {
		t.Fatal("rank-addressed message lost")
	}
}

func TestFabricByGVAWithoutRoutingPanics(t *testing.T) {
	h := newHarness(t, 2, false, Policy{}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.fab.NIC(0).Send(&Message{Dst: ByGVA, Target: gas.New(1, 1, 0)})
}

func TestFabricTotalStats(t *testing.T) {
	h := newHarness(t, 2, false, Policy{}, 0)
	h.resident[1][1] = true
	h.fab.NIC(0).Send(&Message{Dst: 1, Wire: 100})
	h.fab.NIC(1).Send(&Message{Dst: 0, Wire: 100})
	h.eng.Run()
	var st NICStats
	for _, n := range h.fab.NICs {
		for c, v := range n.Stats {
			st[c] += v
		}
	}
	if st[CntSent] != 2 || st[CntReceived] != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st[CntBytesTx] != 200 || st[CntBytesRx] != 200 {
		t.Fatalf("byte stats %+v", st)
	}
}

func TestFabricNMDeliveryNotSlowerThanTwoHops(t *testing.T) {
	// Sanity on the cost model: a forwarded delivery costs strictly more
	// than a direct one, but less than a software round-trip (request +
	// response + resend = 3 one-way latencies).
	direct := func() VTime {
		h := newHarness(t, 4, true, Policy{}, 0)
		h.resident[2][50] = true
		h.fab.NIC(0).Send(&Message{Dst: ByGVA, Target: gas.New(2, 50, 0), Wire: 64})
		h.eng.Run()
		return h.eng.Now()
	}()
	forwarded := func() VTime {
		h := newHarness(t, 4, true, Policy{}, 0)
		h.fab.NIC(2).InstallRoute(50, 3)
		h.resident[3][50] = true
		h.fab.NIC(0).Send(&Message{Dst: ByGVA, Target: gas.New(2, 50, 0), Wire: 64})
		var done VTime
		h.fab.NIC(3).HostDeliver = func(m *Message) { done = h.eng.Now() }
		h.eng.Run()
		return done
	}()
	if forwarded <= direct {
		t.Fatalf("forwarded (%v) not slower than direct (%v)", forwarded, direct)
	}
	if forwarded >= 3*direct {
		t.Fatalf("forwarded (%v) costs like a software round-trip (direct %v)", forwarded, direct)
	}
}
