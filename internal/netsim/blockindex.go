package netsim

import (
	"math/bits"

	"nmvgas/internal/gas"
)

// blockIndex maps a block to its slot in a TransTable's slab: open
// addressing with linear probing and Fibonacci hashing, like the block
// store's index, but nothing is atomic, because the table has one
// writer. Slot 0 is the slab's sentinel, never a block's, so a cell
// naming it is empty and every block number, 0 included, is a key.
// Deletion shifts the rest of the probe run back instead of leaving
// tombstones, and the cells stay between an eighth (past the first
// eight) and a half full, so the index is O(live keys) however many
// keys came and went. The zero value is not ready: call reset.
type blockIndex struct {
	shift uint8 // 32 - log2(len(cells))
	n     int   // cells in use
	cells []indexCell
}

type indexCell struct {
	key  gas.BlockID
	slot int32
}

// noCells is an empty index's one cell. It has no room for a key, so the
// first put replaces it and nothing ever writes to it.
var noCells = make([]indexCell, 1)

func (x *blockIndex) reset() { *x = blockIndex{shift: 32, cells: noCells} }

func (x *blockIndex) home(b gas.BlockID) uint32 { return uint32(b) * 0x9E3779B9 >> x.shift }

// find returns b's cell and slot, or the empty cell that ends b's probe
// and slot 0. A cell stays b's only until the next put or del.
func (x *blockIndex) find(b gas.BlockID) (cell uint32, slot int32) {
	mask := uint32(len(x.cells) - 1)
	for cell = x.home(b); ; cell = (cell + 1) & mask {
		if e := x.cells[cell]; e.slot == 0 || e.key == b {
			return cell, e.slot
		}
	}
}

// put records slot (non-zero) for b in cell, the empty cell find
// returned for b.
func (x *blockIndex) put(cell uint32, b gas.BlockID, slot int32) {
	if 2*(x.n+1) > len(x.cells) {
		x.resize(max(8, 2*len(x.cells)))
		cell, _ = x.find(b)
	}
	x.cells[cell] = indexCell{b, slot}
	x.n++
}

// del empties cell, which find returned holding a key, moving each later
// cell of its run whose probe passes the gap into it.
func (x *blockIndex) del(cell uint32) {
	mask := uint32(len(x.cells) - 1)
	for j := (cell + 1) & mask; x.cells[j].slot != 0; j = (j + 1) & mask {
		if (j-x.home(x.cells[j].key))&mask >= (j-cell)&mask {
			x.cells[cell] = x.cells[j]
			cell = j
		}
	}
	x.cells[cell] = indexCell{}
	if x.n--; len(x.cells) > 8 && 8*x.n < len(x.cells) {
		x.resize(len(x.cells) / 2)
	}
}

func (x *blockIndex) resize(size int) {
	old := x.cells
	x.cells = make([]indexCell, size)
	x.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e.slot != 0 {
			c, _ := x.find(e.key)
			x.cells[c] = e
		}
	}
}
