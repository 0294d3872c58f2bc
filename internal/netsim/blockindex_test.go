package netsim

import (
	"math/rand"
	"testing"

	"nmvgas/internal/gas"
)

// TestBlockIndexMatchesMap runs random put/delete programs over a few
// hundred keys (0 and MaxBlock among them) against a map. After every
// step the index holds exactly the map, every key is reachable from its
// home by a probe that crosses no empty cell, and the cells are between
// an eighth (past the first eight) and a half full.
func TestBlockIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := []gas.BlockID{0, gas.MaxBlock}
	for len(keys) < 300 {
		keys = append(keys, gas.BlockID(rng.Uint32()))
	}
	for round := 0; round < 20; round++ {
		var x blockIndex
		x.reset()
		want := map[gas.BlockID]int32{}
		for step := 0; step < 2000; step++ {
			b := keys[rng.Intn(20+round*14)]
			c, slot := x.find(b)
			if slot != want[b] {
				t.Fatalf("find(%d) = slot %d, want %d", b, slot, want[b])
			}
			switch {
			case slot == 0:
				want[b] = int32(step + 1)
				x.put(c, b, want[b])
			case rng.Intn(3) > 0:
				delete(want, b)
				x.del(c)
			}
			checkIndex(t, &x, want)
		}
	}
}

func checkIndex(t *testing.T, x *blockIndex, want map[gas.BlockID]int32) {
	t.Helper()
	n, size := 0, len(x.cells)
	for i, e := range x.cells {
		if e.slot == 0 {
			continue
		}
		n++
		if want[e.key] != e.slot {
			t.Fatalf("cell %d holds %d → %d, the map %d", i, e.key, e.slot, want[e.key])
		}
		for j := int(x.home(e.key)); j != i; j = (j + 1) & (size - 1) {
			if x.cells[j].slot == 0 {
				t.Fatalf("%d at cell %d is cut off from its home %d by empty cell %d", e.key, i, x.home(e.key), j)
			}
		}
	}
	if n != len(want) || x.n != n || 2*n > size || size > 8 && 8*n < size {
		t.Fatalf("%d keys (count %d) in %d cells, the map holds %d", n, x.n, size, len(want))
	}
}
