package agas

import "nmvgas/internal/gas"

// Tombstones records, at a block's *previous* owner, where the block went.
// In software-managed AGAS the old owner's host uses this to forward
// stale traffic and to answer one-sided faults. (In network-managed AGAS
// the equivalent state lives in the old owner's NIC instead.)
type Tombstones struct {
	m map[gas.BlockID]int
}

// NewTombstones returns an empty table.
func NewTombstones() *Tombstones {
	return &Tombstones{m: make(map[gas.BlockID]int)}
}

// Put records that block now lives at owner.
func (t *Tombstones) Put(block gas.BlockID, owner int) {
	t.m[block] = owner
}

// Get returns the forwarding target for block, if known.
func (t *Tombstones) Get(block gas.BlockID) (int, bool) {
	o, ok := t.m[block]
	return o, ok
}

// Drop removes a tombstone (the block came back, or was freed).
func (t *Tombstones) Drop(block gas.BlockID) {
	delete(t.m, block)
}

// Clear drops every tombstone (rebirth of the owning locality — the
// previous incarnation's forwarding chains must not mislead the new
// one).
func (t *Tombstones) Clear() {
	t.m = make(map[gas.BlockID]int)
}

// Len returns the tombstone count.
func (t *Tombstones) Len() int {
	return len(t.m)
}
