package netsim

import (
	"sync/atomic"

	"nmvgas/internal/gas"
)

// TransTable is a block → owner translation table with optional capacity
// bounding and LRU replacement. It models the NIC-resident table of the
// network-managed design (NIC memory is finite, so capacity and its miss
// cliff are first-class concerns) and doubles as the software translation
// cache in the software-managed baseline (where capacity is usually
// unbounded but the probe is more expensive — the cost difference is
// charged by the caller, not here). A block's slot also holds the route
// and read route TransState keeps, so one probe finds all three.
type TransTable struct {
	cap int // 0 means unbounded

	// Slots live in one slab and ix maps a block to its slot. A slot
	// holding a cached entry is linked into a circular LRU list by int32
	// indices through the sentinel ents[0] (its next is the most recently
	// used entry, its prev the least); a slot carrying only a route or a
	// read route stays off the list (prev < 0). A slot is freed once it
	// carries none of the three: freed slots are chained through next on
	// the free list (0 ends it) and reused, so a table at capacity
	// installs without allocating.
	ix   blockIndex
	ents []ttEntry
	free int32
	n    int // cached entries: slots on the LRU list

	// epoch is the membership epoch the table trusts, a counter it only
	// reads (TrustEpoch). Entries installed under an older epoch are
	// fenced: Lookup treats them as missing and evicts them lazily, so a
	// membership change (death, retire, join) invalidates every cached
	// translation in O(1) without walking the table — the stale entry
	// NACKs at the authoritative side instead of routing traffic to a
	// corpse.
	epoch *atomic.Uint64

	hits, misses, evictions, updates uint64
}

// noRank marks an absent route or read route (the sentinel's, too).
const noRank = -1

type ttEntry struct {
	block      gas.BlockID
	owner      int32  // the cached owner, while the slot is on the LRU list
	epoch      uint64 // membership epoch at install time
	prev, next int32
	route      int32 // authoritative owner (TransState.InstallRoute)
	read       int32 // read steering (TransState.InstallReadRoute)
}

// NewTransTable returns a table bounded to capacity entries; capacity 0
// means unbounded.
func NewTransTable(capacity int) *TransTable {
	t := &TransTable{cap: capacity, epoch: &noEpoch}
	t.Reset()
	return t
}

// noEpoch is what a table trusts until TrustEpoch: a counter nobody
// advances, so nothing it installs is ever fenced.
var noEpoch atomic.Uint64

// TrustEpoch makes the table trust e, which only e's owner advances:
// tables trusting one counter are all fenced by one advance. Reset keeps
// the trust.
func (t *TransTable) TrustEpoch(e *atomic.Uint64) { t.epoch = e }

// cached reports whether slot i holds a table entry.
func (t *TransTable) cached(i int32) bool { return i != 0 && t.ents[i].prev >= 0 }

// unlink takes slot i out of the LRU list.
func (t *TransTable) unlink(i int32) {
	e := &t.ents[i]
	t.ents[e.prev].next = e.next
	t.ents[e.next].prev = e.prev
	e.prev = -1
}

// pushFront links the unlinked slot i in as the most recently used entry.
func (t *TransTable) pushFront(i int32) {
	first := t.ents[0].next
	t.ents[i].prev, t.ents[i].next = 0, first
	t.ents[first].prev = i
	t.ents[0].next = i
}

// alloc gives block, whose probe ended at the empty cell c, a slot
// carrying nothing yet.
func (t *TransTable) alloc(c uint32, block gas.BlockID) int32 {
	i := t.free
	if i != 0 {
		t.free = t.ents[i].next
	} else {
		t.ents = append(t.ents, ttEntry{})
		i = int32(len(t.ents) - 1)
	}
	t.ents[i] = ttEntry{block: block, prev: -1, route: noRank, read: noRank}
	t.ix.put(c, block, i)
	return i
}

// slotFor returns block's slot, giving it one if it has none.
func (t *TransTable) slotFor(block gas.BlockID) *ttEntry {
	c, i := t.ix.find(block)
	if i == 0 {
		i = t.alloc(c, block)
	}
	return &t.ents[i]
}

// release frees slot i, found at cell c, if it carries nothing.
func (t *TransTable) release(c uint32, i int32) {
	if e := &t.ents[i]; e.prev < 0 && e.route == noRank && e.read == noRank {
		t.ix.del(c)
		e.next = t.free
		t.free = i
	}
}

// uncache drops slot i's cached entry; c is the slot's cell.
func (t *TransTable) uncache(c uint32, i int32) {
	t.unlink(i)
	t.n--
	t.release(c, i)
}

// Lookup returns the cached owner of block, recording a hit or miss.
// Entries from a fenced (older) epoch read as misses and are evicted.
func (t *TransTable) Lookup(block gas.BlockID) (owner int, ok bool) {
	return t.lookupAt(t.ix.find(block))
}

// lookupAt is Lookup of the block at cell c and slot i.
func (t *TransTable) lookupAt(c uint32, i int32) (int, bool) {
	if t.cached(i) && t.ents[i].epoch < t.epoch.Load() {
		t.uncache(c, i) // fenced: evicted, and a miss
	}
	if !t.cached(i) {
		t.misses++
		return 0, false
	}
	t.hits++
	t.unlink(i)
	t.pushFront(i)
	return int(t.ents[i].owner), true
}

// peekAt is Lookup of slot i without touching the LRU order or the
// hit/miss counters. A fenced entry reads as missing but is not evicted.
func (t *TransTable) peekAt(i int32) (int, bool) {
	if !t.cached(i) || t.ents[i].epoch < t.epoch.Load() {
		return 0, false
	}
	return int(t.ents[i].owner), true
}

// Update installs or overwrites the owner of block at the table's current
// epoch, evicting the least recently used entry if the table is full.
func (t *TransTable) Update(block gas.BlockID, owner int) {
	t.updates++
	epoch := t.epoch.Load()
	c, i := t.ix.find(block)
	if t.cached(i) {
		t.unlink(i)
	} else {
		if t.cap > 0 && t.n >= t.cap {
			lru := t.ents[0].prev
			c, _ = t.ix.find(t.ents[lru].block)
			t.uncache(c, lru)
			t.evictions++
			c, _ = t.ix.find(block) // the eviction may have moved block's cell
		}
		if i == 0 {
			i = t.alloc(c, block)
		}
		t.n++
	}
	t.ents[i].owner, t.ents[i].epoch = int32(owner), epoch
	t.pushFront(i)
}

// Epoch returns the membership epoch the table currently trusts.
func (t *TransTable) Epoch() uint64 { return t.epoch.Load() }

// Invalidate removes block's entry if present, reporting whether it was.
func (t *TransTable) Invalidate(block gas.BlockID) bool {
	c, i := t.ix.find(block)
	if !t.cached(i) {
		return false
	}
	t.uncache(c, i)
	return true
}

// DropIndex removes the i-th entry in LRU order (0 = most recently
// used), reporting which block was lost. It models a soft error erasing
// one arbitrary table entry: the fault injector picks the index. Unlike
// Update's capacity eviction it does not count as an eviction, because
// the entry did not age out — it was destroyed.
func (t *TransTable) DropIndex(i int) (gas.BlockID, bool) {
	if i < 0 || i >= t.n {
		return 0, false
	}
	s := t.ents[0].next
	for ; i > 0; i-- {
		s = t.ents[s].next
	}
	b := t.ents[s].block
	c, _ := t.ix.find(b)
	t.uncache(c, s)
	return b, true
}

// Reset drops every entry, route and read route and returns the table to
// its post-construction state (counters and the epoch trust survive — a
// reborn NIC still lives in the current membership epoch). Used when a
// dead locality rejoins: the new incarnation starts with an empty table.
func (t *TransTable) Reset() {
	t.ix.reset()
	t.ents = []ttEntry{{route: noRank, read: noRank}} // the sentinel, linked to itself
	t.free, t.n = 0, 0
}

// Len returns the number of resident entries.
func (t *TransTable) Len() int { return t.n }

// Stats returns cumulative hit/miss/eviction/update counters.
func (t *TransTable) Stats() (hits, misses, evictions, updates uint64) {
	return t.hits, t.misses, t.evictions, t.updates
}
