package netsim

import (
	"testing"
	"testing/quick"

	"nmvgas/internal/gas"
)

func TestTransTableBasic(t *testing.T) {
	tt := NewTransTable(0)
	if _, ok := tt.Lookup(1); ok {
		t.Fatal("empty table hit")
	}
	tt.Update(1, 3)
	if o, ok := tt.Lookup(1); !ok || o != 3 {
		t.Fatalf("Lookup(1) = %d,%v", o, ok)
	}
	tt.Update(1, 5) // overwrite
	if o, _ := tt.Lookup(1); o != 5 {
		t.Fatalf("overwrite failed, got %d", o)
	}
	if tt.Len() != 1 {
		t.Fatalf("Len = %d", tt.Len())
	}
}

// TestTransTablesTrustOneEpoch: every table trusting one counter is
// fenced by one advance of it, Reset keeps the trust, and a table that
// trusts no counter fences nothing.
func TestTransTablesTrustOneEpoch(t *testing.T) {
	var epoch uint64
	a, b := NewTransTable(0), NewTransTable(4)
	a.TrustEpoch(&epoch)
	b.TrustEpoch(&epoch)
	a.Update(1, 2)
	b.Update(1, 3)
	epoch++
	for i, tt := range []*TransTable{a, b} {
		if tt.Epoch() != 1 {
			t.Fatalf("table %d trusts epoch %d after the advance, want 1", i, tt.Epoch())
		}
		if _, ok := peek(tt, 1); ok {
			t.Fatalf("table %d: an entry from epoch 0 survived the advance", i)
		}
		if _, ok := tt.Lookup(1); ok || tt.Len() != 0 {
			t.Fatalf("table %d: a fenced entry hit or was not evicted (len %d)", i, tt.Len())
		}
	}

	b.Update(2, 1)
	b.Reset()
	b.Update(3, 1)
	if o, ok := peek(b, 3); !ok || o != 1 {
		t.Fatalf("entry installed after Reset: %d,%v", o, ok)
	}
	epoch++
	if _, ok := peek(b, 3); ok || b.Epoch() != 2 {
		t.Fatalf("Reset dropped the table's trust: it reads epoch %d", b.Epoch())
	}

	c := NewTransTable(0)
	c.Update(1, 2)
	epoch++
	if o, ok := c.Lookup(1); !ok || o != 2 || c.Epoch() != 0 {
		t.Fatalf("a table trusting no counter was fenced: %d,%v at epoch %d", o, ok, c.Epoch())
	}
}

func TestTransTableInvalidate(t *testing.T) {
	tt := NewTransTable(0)
	tt.Update(2, 1)
	if !tt.Invalidate(2) {
		t.Fatal("Invalidate of present entry returned false")
	}
	if tt.Invalidate(2) {
		t.Fatal("double Invalidate returned true")
	}
	if _, ok := tt.Lookup(2); ok {
		t.Fatal("entry survived Invalidate")
	}
}

func TestTransTableLRUEviction(t *testing.T) {
	tt := NewTransTable(3)
	tt.Update(1, 0)
	tt.Update(2, 0)
	tt.Update(3, 0)
	tt.Lookup(1) // 1 becomes MRU; LRU order now 2,3,1
	tt.Update(4, 0)
	if _, ok := peek(tt, 2); ok {
		t.Fatal("LRU entry 2 not evicted")
	}
	for _, b := range []gas.BlockID{1, 3, 4} {
		if _, ok := peek(tt, b); !ok {
			t.Fatalf("entry %d wrongly evicted", b)
		}
	}
	_, _, ev, _ := tt.Stats()
	if ev != 1 {
		t.Fatalf("evictions = %d", ev)
	}
}

func TestTransTableCapacityNeverExceeded(t *testing.T) {
	f := func(ops []uint16, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		tt := NewTransTable(capacity)
		for _, op := range ops {
			tt.Update(gas.BlockID(op%64), int(op%8))
			if tt.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// peek reads block's cached owner as Forward reads it: one probe, no LRU
// move, no counter, a fenced entry missing but not evicted.
func peek(t *TransTable, block gas.BlockID) (int, bool) {
	_, i := t.ix.find(block)
	return t.peekAt(i)
}

func TestTransTablePeekDoesNotPerturb(t *testing.T) {
	tt := NewTransTable(2)
	tt.Update(1, 0)
	tt.Update(2, 0)
	peek(tt, 1) // must NOT refresh 1
	tt.Update(3, 0)
	if _, ok := peek(tt, 1); ok {
		t.Fatal("peek refreshed LRU position")
	}
	h, m, _, _ := tt.Stats()
	if h != 0 || m != 0 {
		t.Fatalf("peek counted in stats: hits=%d misses=%d", h, m)
	}
}

func TestTransTableHitRate(t *testing.T) {
	tt := NewTransTable(0)
	if h, m, _, _ := tt.Stats(); h != 0 || m != 0 {
		t.Fatalf("untouched table counted hits=%d misses=%d", h, m)
	}
	tt.Update(1, 0)
	tt.Lookup(1)
	tt.Lookup(2)
	if h, m, _, _ := tt.Stats(); h != 1 || m != 1 {
		t.Fatalf("one hit and one miss counted as hits=%d misses=%d", h, m)
	}
}

func TestTransTableUnboundedGrows(t *testing.T) {
	tt := NewTransTable(0)
	for i := 0; i < 10000; i++ {
		tt.Update(gas.BlockID(i), i%7)
	}
	if tt.Len() != 10000 {
		t.Fatalf("Len = %d", tt.Len())
	}
	_, _, ev, _ := tt.Stats()
	if ev != 0 {
		t.Fatalf("unbounded table evicted %d entries", ev)
	}
}

func TestTransTableDropIndex(t *testing.T) {
	tt := NewTransTable(0)
	tt.Update(1, 0)
	tt.Update(2, 0)
	tt.Update(3, 0) // LRU order (MRU first): 3, 2, 1
	if b, ok := tt.DropIndex(1); !ok || b != 2 {
		t.Fatalf("DropIndex(1) = %d,%v, want 2,true", b, ok)
	}
	if _, ok := peek(tt, 2); ok {
		t.Fatal("dropped entry still present")
	}
	for _, b := range []gas.BlockID{1, 3} {
		if _, ok := peek(tt, b); !ok {
			t.Fatalf("innocent entry %d destroyed", b)
		}
	}
	if _, ok := tt.DropIndex(5); ok {
		t.Fatal("out-of-range DropIndex reported a loss")
	}
	if _, ok := tt.DropIndex(-1); ok {
		t.Fatal("negative DropIndex reported a loss")
	}
	// A soft-error loss is not an eviction: the entry did not age out.
	_, _, ev, _ := tt.Stats()
	if ev != 0 {
		t.Fatalf("DropIndex counted %d evictions", ev)
	}
}

func TestEntryLossFallsBackToHome(t *testing.T) {
	// A stale cached translation (block migrated away from rank 2, the
	// correcting update lost) that is then destroyed by a soft error must
	// degrade to routing via the authoritative home — never to acting on
	// the stale entry.
	h := newHarness(t, 3, true, Policy{}, 0)
	h.resident[1][50] = true // block 50 lives at its home, rank 1
	nic := h.fab.NIC(0)
	nic.Table.Update(50, 2) // stale: points at the old owner

	fi := NewFaultInjector(FaultPlan{Seed: 3, TableLoss: 1})
	if !fi.MaybeLoseEntry(nic.Table) {
		t.Fatal("forced entry loss did not fire")
	}
	if _, ok := peek(nic.Table, 50); ok {
		t.Fatal("stale entry survived forced loss")
	}

	h.fab.NIC(0).Send(&Message{Src: 0, Dst: ByGVA, Target: gas.New(1, 50, 0), Wire: 32})
	h.eng.Run()
	if len(h.hostRx[1]) != 1 {
		t.Fatalf("home got %d deliveries, want 1", len(h.hostRx[1]))
	}
	if got := h.hostRx[1][0].Hops; got != 0 {
		t.Fatalf("delivery took %d hops, want direct-to-home", got)
	}
	if len(h.hostRx[2])+len(h.dmaRx[2]) != 0 {
		t.Fatal("message chased the stale owner despite the entry being gone")
	}
}

func TestEntryLossNeverTouchesAuthoritativeRoutes(t *testing.T) {
	// The soft-error model only scrubs the evictable translation cache;
	// authoritative route entries (home mirror, tombstones) are host-
	// installed state and survive any amount of table loss.
	h := newHarness(t, 2, true, Policy{}, 4)
	nic := h.fab.NIC(0)
	nic.InstallRoute(7, 1)
	nic.Table.Update(7, 1)
	fi := NewFaultInjector(FaultPlan{Seed: 1, TableLoss: 1})
	for i := 0; i < 4; i++ {
		fi.MaybeLoseEntry(nic.Table)
	}
	if nic.Table.Len() != 0 {
		t.Fatal("table not fully scrubbed")
	}
	if o, ok := nic.Route(7); !ok || o != 1 {
		t.Fatalf("authoritative route lost: %d,%v", o, ok)
	}
}

// TestTransTableUpdateAtCapacityAllocatesNothing pins the slab layout: a
// full table installs a new block into the slot it just evicted.
func TestTransTableUpdateAtCapacityAllocatesNothing(t *testing.T) {
	tt := NewTransTable(32)
	next := gas.BlockID(0)
	for ; next < 4096; next++ { // fill, then churn until the index map settles
		tt.Update(next, int(next)%7)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tt.Update(next, 3)
		next++
	}); n != 0 {
		t.Fatalf("Update at capacity allocates %v per install, want 0", n)
	}
	if _, _, ev, _ := tt.Stats(); ev == 0 || tt.Len() != 32 {
		t.Fatalf("table did not evict: len %d evictions %d", tt.Len(), ev)
	}
}
