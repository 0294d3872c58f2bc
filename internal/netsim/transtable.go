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
// charged by the caller, not here).
type TransTable struct {
	cap int // 0 means unbounded

	// Entries live in one slab, linked into a circular LRU list by int32
	// indices through the sentinel ents[0] (its next is the most recently
	// used entry, its prev the least); idx maps a block to its slot.
	// Evicted and dropped slots are chained through next on the free list
	// (0 ends it) and reused, so a table at capacity installs without
	// allocating.
	idx  map[gas.BlockID]int32
	ents []ttEntry
	free int32
	n    int

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

type ttEntry struct {
	block      gas.BlockID
	owner      int
	epoch      uint64 // membership epoch at install time
	prev, next int32
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

// unlink takes slot i out of the LRU list.
func (t *TransTable) unlink(i int32) {
	e := &t.ents[i]
	t.ents[e.prev].next = e.next
	t.ents[e.next].prev = e.prev
}

// pushFront links the unlinked slot i in as the most recently used entry.
func (t *TransTable) pushFront(i int32) {
	first := t.ents[0].next
	t.ents[i].prev, t.ents[i].next = 0, first
	t.ents[first].prev = i
	t.ents[0].next = i
}

// remove drops slot i's entry and puts the slot on the free list.
func (t *TransTable) remove(i int32) {
	t.unlink(i)
	delete(t.idx, t.ents[i].block)
	t.ents[i].next = t.free
	t.free = i
	t.n--
}

// Lookup returns the cached owner of block, recording a hit or miss.
// Entries from a fenced (older) epoch read as misses and are evicted.
func (t *TransTable) Lookup(block gas.BlockID) (owner int, ok bool) {
	i, ok := t.idx[block]
	if !ok {
		t.misses++
		return 0, false
	}
	if t.ents[i].epoch < t.epoch.Load() {
		t.remove(i)
		t.misses++
		return 0, false
	}
	t.hits++
	t.unlink(i)
	t.pushFront(i)
	return t.ents[i].owner, true
}

// Peek is Lookup without touching the LRU order or the hit/miss counters
// (used by invariant checks and tests). Fenced entries read as missing
// but are not evicted.
func (t *TransTable) Peek(block gas.BlockID) (owner int, ok bool) {
	i, ok := t.idx[block]
	if !ok || t.ents[i].epoch < t.epoch.Load() {
		return 0, false
	}
	return t.ents[i].owner, true
}

// Update installs or overwrites the owner of block at the table's current
// epoch, evicting the least recently used entry if the table is full.
func (t *TransTable) Update(block gas.BlockID, owner int) {
	t.updates++
	epoch := t.epoch.Load()
	if i, ok := t.idx[block]; ok {
		t.ents[i].owner = owner
		t.ents[i].epoch = epoch
		t.unlink(i)
		t.pushFront(i)
		return
	}
	if t.cap > 0 && t.n >= t.cap {
		t.remove(t.ents[0].prev)
		t.evictions++
	}
	i := t.free
	if i != 0 {
		t.free = t.ents[i].next
	} else {
		t.ents = append(t.ents, ttEntry{})
		i = int32(len(t.ents) - 1)
	}
	t.ents[i] = ttEntry{block: block, owner: owner, epoch: epoch}
	t.pushFront(i)
	t.idx[block] = i
	t.n++
}

// Epoch returns the membership epoch the table currently trusts.
func (t *TransTable) Epoch() uint64 { return t.epoch.Load() }

// Invalidate removes block's entry if present, reporting whether it was.
func (t *TransTable) Invalidate(block gas.BlockID) bool {
	i, ok := t.idx[block]
	if ok {
		t.remove(i)
	}
	return ok
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
	t.remove(s)
	return b, true
}

// Reset drops every entry and returns the table to its post-construction
// state (counters and the epoch trust survive — a reborn NIC still lives
// in the current membership epoch). Used when a dead locality
// rejoins: the new incarnation starts with an empty table.
func (t *TransTable) Reset() {
	t.idx = make(map[gas.BlockID]int32)
	t.ents = []ttEntry{{}} // the sentinel, linked to itself
	t.free, t.n = 0, 0
}

// Len returns the number of resident entries.
func (t *TransTable) Len() int { return t.n }

// Stats returns cumulative hit/miss/eviction/update counters.
func (t *TransTable) Stats() (hits, misses, evictions, updates uint64) {
	return t.hits, t.misses, t.evictions, t.updates
}
