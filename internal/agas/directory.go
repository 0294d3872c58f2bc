// Package agas implements the software side of the active global address
// space: the home-based ownership directory, the per-locality software
// translation cache, and host-level forwarding tombstones. The
// software-managed baseline uses all three from the host CPU; the
// network-managed mode (runtime's space_agasnm.go) keeps the same
// directory as the source of truth but mirrors it into NIC translation
// state so the data path never touches these structures.
package agas

import "nmvgas/internal/gas"

// Directory is the authoritative block→owner map kept at each block's
// home locality. It only stores entries for blocks whose owner differs
// from their home; an absent entry means "still at home", which keeps the
// directory proportional to migrated blocks rather than all blocks.
//
// It doubles as the owner-side replica directory: the master of a
// replicated block records its replica set here, and the coherence
// protocol (invalidations, updates, fills) consults it. The replica map
// travels with the master on migration (see runtime migrate), so the
// set is always found where writes land.
type Directory struct {
	owners map[gas.BlockID]int
	repl   map[gas.BlockID]ReplicaSet
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		owners: make(map[gas.BlockID]int),
		repl:   make(map[gas.BlockID]ReplicaSet),
	}
}

// ReplicaSet is the owner-side record of one replicated block: who holds
// the writable master and which ranks hold read replicas.
type ReplicaSet struct {
	Master  int
	Holders []int
}

// clone deep-copies the set so callers can't alias directory state.
func (s ReplicaSet) clone() ReplicaSet {
	return ReplicaSet{Master: s.Master, Holders: append([]int(nil), s.Holders...)}
}

// Owner returns the recorded owner of block and whether an entry exists.
// No entry means the block is at its home.
func (d *Directory) Owner(block gas.BlockID) (int, bool) {
	o, ok := d.owners[block]
	return o, ok
}

// Resolve returns the effective owner given the block's home.
func (d *Directory) Resolve(block gas.BlockID, home int) int {
	if o, ok := d.Owner(block); ok {
		return o
	}
	return home
}

// Set records block's current owner. Recording the home owner removes the
// entry (the block returned home).
func (d *Directory) Set(block gas.BlockID, owner, home int) {
	if owner == home {
		delete(d.owners, block)
		return
	}
	d.owners[block] = owner
}

// Drop removes any entry for block (used by free).
func (d *Directory) Drop(block gas.BlockID) {
	delete(d.owners, block)
}

// Len returns the number of away-from-home entries.
func (d *Directory) Len() int {
	return len(d.owners)
}

// SetReplicas records block's replica set at this (owner-side) directory.
func (d *Directory) SetReplicas(block gas.BlockID, master int, holders []int) {
	d.repl[block] = ReplicaSet{Master: master, Holders: append([]int(nil), holders...)}
}

// Replicas returns a copy of block's replica set, if it is replicated.
func (d *Directory) Replicas(block gas.BlockID) (ReplicaSet, bool) {
	s, ok := d.repl[block]
	if !ok {
		return ReplicaSet{}, false
	}
	return s.clone(), true
}

// TakeReplicas removes and returns block's replica set — the migration
// path uses it to carry the set to the new master's directory.
func (d *Directory) TakeReplicas(block gas.BlockID) (ReplicaSet, bool) {
	s, ok := d.repl[block]
	if !ok {
		return ReplicaSet{}, false
	}
	delete(d.repl, block)
	return s, true
}

// DropReplicas removes block's replica set (unreplicate / free).
func (d *Directory) DropReplicas(block gas.BlockID) {
	delete(d.repl, block)
}

// Entries returns a snapshot of every away-from-home ownership entry.
// The membership layer uses it to harvest a dying home's routing
// knowledge (the directory is logically replicated metadata, so it
// survives the home's data loss) and to find entries naming a dead
// owner.
func (d *Directory) Entries() map[gas.BlockID]int {
	out := make(map[gas.BlockID]int, len(d.owners))
	for b, o := range d.owners {
		out[b] = o
	}
	return out
}

// ReplicaEntries returns a snapshot of every replica set tracked here,
// deep-copied so callers cannot alias directory state.
func (d *Directory) ReplicaEntries() map[gas.BlockID]ReplicaSet {
	out := make(map[gas.BlockID]ReplicaSet, len(d.repl))
	for b, s := range d.repl {
		out[b] = s.clone()
	}
	return out
}

// Clear wipes every ownership entry and replica set. A locality reborn
// through the membership layer's Join starts with an empty directory and
// reclaims authority through the catch-up sync at Join.
func (d *Directory) Clear() {
	d.owners = make(map[gas.BlockID]int)
	d.repl = make(map[gas.BlockID]ReplicaSet)
}
