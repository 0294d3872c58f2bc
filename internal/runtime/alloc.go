package runtime

import (
	"fmt"

	"nmvgas/internal/gas"
)

// Global allocation. Block-number reservation goes through the shared
// sequence and block creation writes directly into the owning stores:
// this is a documented setup-phase shortcut (see gas.Sequence) — the
// paper's evaluation concerns the data path (translation, forwarding,
// migration), not allocation throughput. Allocation is safe to call
// before Start and concurrently with running traffic (each block is built
// complete, then inserted), but the returned layout must be communicated
// to actions by the caller.

// AllocCyclic distributes nblocks blocks of bsize bytes round-robin over
// all localities, starting at origin.
func (w *World) AllocCyclic(origin int, bsize, nblocks uint32) (gas.Layout, error) {
	return w.alloc(origin, bsize, nblocks, gas.DistCyclic)
}

// AllocBlocked distributes contiguous runs of blocks per locality.
func (w *World) AllocBlocked(origin int, bsize, nblocks uint32) (gas.Layout, error) {
	return w.alloc(origin, bsize, nblocks, gas.DistBlocked)
}

// AllocLocal places every block on origin.
func (w *World) AllocLocal(origin int, bsize, nblocks uint32) (gas.Layout, error) {
	return w.alloc(origin, bsize, nblocks, gas.DistLocal)
}

func (w *World) alloc(origin int, bsize, nblocks uint32, dist gas.Dist) (gas.Layout, error) {
	if origin < 0 || origin >= w.cfg.Ranks {
		return gas.Layout{}, fmt.Errorf("runtime: alloc origin %d out of range", origin)
	}
	if nblocks == 0 {
		return gas.Layout{}, fmt.Errorf("runtime: alloc of zero blocks")
	}
	if bsize == 0 || bsize > gas.MaxBlockSize {
		return gas.Layout{}, fmt.Errorf("runtime: block size %d out of range", bsize)
	}
	base, err := w.seq.Reserve(nblocks)
	if err != nil {
		return gas.Layout{}, err
	}
	l := gas.Layout{
		Base:    gas.New(origin, base, 0),
		BSize:   bsize,
		NBlocks: nblocks,
		Ranks:   w.cfg.Ranks,
		Dist:    dist,
	}
	for d := uint32(0); d < nblocks; d++ {
		home := l.HomeOf(d)
		blk, err := gas.NewDataBlock(base+gas.BlockID(d), bsize, home)
		if err == nil {
			err = w.locs[home].store.Insert(blk)
		}
		if err != nil {
			return gas.Layout{}, err
		}
	}
	return l, nil
}

// Free releases an allocation: block data is removed from the current
// owners and every translation structure forgets the blocks. Free is a
// setup-phase operation with the same shortcut status as alloc; freeing
// blocks with traffic still in flight is a caller bug.
func (w *World) Free(l gas.Layout) error {
	for d := uint32(0); d < l.NBlocks; d++ {
		b := l.Base.Block() + gas.BlockID(d)
		home := l.HomeOf(d)
		owner := w.locs[home].space.HomeOwner(b)
		if !w.freeStep(owner, b, home, w.claim) {
			return fmt.Errorf("runtime: free of non-resident block %d (owner %d)", b, owner)
		}
	}
	return nil
}

// freeStep frees block b at its owner, World.Free's and FreeAsync's one
// per-block step: it takes the replica set, removes the owner's copy, and
// drops every holder copy and every translation of b, each holder record
// and each NIC through write. It reports false when the owner does not
// hold b.
func (w *World) freeStep(owner int, b gas.BlockID, home int, write rankWrite) bool {
	if dir := w.locs[owner].space.Directory(); dir != nil {
		if _, ok := dir.TakeReplicas(b); ok {
			w.replCount.Add(-1)
		}
	}
	if _, ok := w.locs[owner].store.Remove(b); !ok {
		return false
	}
	for _, loc := range w.locs {
		loc.dropReplica(b, write)
		loc.space.OnFree(b, home, write)
	}
	return true
}
