package runtime

import (
	"testing"

	"nmvgas/internal/gas"
)

func TestFreeChasesMigratedBlocks(t *testing.T) {
	for _, mode := range agasModes {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: EngineDES})
		w.Start()
		lay, err := w.AllocCyclic(0, 128, 4)
		if err != nil {
			t.Fatal(err)
		}
		w.MustWait(w.Proc(0).Migrate(lay.BlockAt(0), 3))
		w.MustWait(w.Proc(0).Migrate(lay.BlockAt(2), 1))
		if err := w.Free(lay); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		for d := uint32(0); d < 4; d++ {
			b := lay.Base.Block() + gas.BlockID(d)
			for r := 0; r < 4; r++ {
				if _, ok := w.Locality(r).Store().Get(b); ok {
					t.Fatalf("%s: block %d survived free at rank %d", mode, d, r)
				}
			}
			home := lay.HomeOf(d)
			if _, ok := w.Locality(home).Directory().Owner(b); ok {
				t.Fatalf("%s: directory entry for %d survived free", mode, d)
			}
		}
		// The freed block numbers are gone from translation state: a new
		// allocation gets fresh numbers, and using it works.
		lay2, err := w.AllocCyclic(0, 128, 4)
		if err != nil {
			t.Fatal(err)
		}
		w.MustWait(w.Proc(1).Put(lay2.BlockAt(0), []byte{1}))
	}
}

func TestFreeAfterMigrationSweepsTombstones(t *testing.T) {
	w := testWorld(t, Config{Ranks: 3, Mode: AGASSW, Engine: EngineDES})
	w.Start()
	lay, err := w.AllocLocal(0, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := lay.BlockAt(0).Block()
	w.MustWait(w.Proc(0).Migrate(lay.BlockAt(0), 2))
	if _, ok := w.Locality(0).space.Tombstones().Get(b); !ok {
		t.Fatal("no tombstone after migration")
	}
	if err := w.Free(lay); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Locality(0).space.Tombstones().Get(b); ok {
		t.Fatal("tombstone survived free")
	}
}
