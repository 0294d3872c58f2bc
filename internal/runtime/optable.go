package runtime

import "math/bits"

// opTable is a locality's outstanding one-sided ops by OpID (Locality.ops,
// touched only on the locality's token): open addressing with a multiplicative hash, linear
// probing and backward-shift deletion, so a take leaves no tombstone.
// newOpID never mints 0, which marks an empty slot. It doubles at half
// full and holds slots for the peak number of outstanding ops, however
// far apart their ids are (parcels draw from the same counter).
type opTable struct {
	slots []opSlot // len is zero or a power of two
	shift uint     // 64 − log2(len(slots))
	n     int
}

type opSlot struct {
	id uint64
	st opState
}

// home is id's preferred slot: the top bits of a Fibonacci hash.
func (t *opTable) home(id uint64) int { return int(id * 0x9e3779b97f4a7c15 >> t.shift) }

// find returns id's slot, or the empty slot that ends its probe.
func (t *opTable) find(id uint64) int {
	i, mask := t.home(id), len(t.slots)-1
	for t.slots[i].id != 0 && t.slots[i].id != id {
		i = (i + 1) & mask
	}
	return i
}

// put stores st under id, replacing what id held.
func (t *opTable) put(id uint64, st opState) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		size := max(8, 2*len(old))
		t.slots, t.n, t.shift = make([]opSlot, size), 0, uint(65-bits.Len(uint(size)))
		for _, s := range old {
			if s.id != 0 {
				t.put(s.id, s.st)
			}
		}
	}
	i := t.find(id)
	if t.slots[i].id == 0 {
		t.n++
	}
	t.slots[i] = opSlot{id, st}
}

// take removes id and returns what it held. Each later entry of the
// cluster whose home lies at or before the hole moves back into it,
// leaving the hole at its old slot, so every key stays reachable from
// its home.
func (t *opTable) take(id uint64) (opState, bool) {
	if t.n == 0 {
		return opState{}, false
	}
	i, mask := t.find(id), len(t.slots)-1
	if t.slots[i].id == 0 {
		return opState{}, false
	}
	st := t.slots[i].st
	for j := (i + 1) & mask; t.slots[j].id != 0; j = (j + 1) & mask {
		if h := t.home(t.slots[j].id); (j-h)&mask >= (j-i)&mask {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = opSlot{}
	t.n--
	return st, true
}
