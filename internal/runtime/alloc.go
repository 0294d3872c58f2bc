package runtime

import (
	"fmt"

	"nmvgas/internal/gas"
)

// Global allocation. Block-number reservation goes through the shared
// sequence and a driver inserts each block into its home's store by
// claiming the home (World.claim): this is a documented setup-phase
// shortcut (see gas.Sequence) — the paper's evaluation concerns the data
// path (translation, forwarding, migration), not allocation throughput.
// Allocation and Free are driver calls, safe before Start and beside
// running traffic; the returned layout must be communicated to actions by
// the caller (actions allocate with Proc.AllocAsync).

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
			w.claim(home, func() { err = w.locs[home].store.Insert(blk) })
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
		owner, held := w.Owner(b, home), false
		w.claim(owner, func() { held = w.locs[owner].freeOwned(b) })
		if !held {
			return fmt.Errorf("runtime: free of non-resident block %d (owner %d)", b, owner)
		}
		w.sweepFree(b, home, w.claim)
	}
	return nil
}

// Owner returns b's current owner as its home's directory knows it,
// read through a claim of the home: a driver's door to another rank's
// directory (allocation, replication, internal/loadbal's policy).
func (w *World) Owner(b gas.BlockID, home int) (owner int) {
	w.claim(home, func() { owner = w.locs[home].space.HomeOwner(b) })
	return owner
}

// Block runs fn on g's data from g's offset on, in the master copy at the
// owner Owner resolves, claimed (at once on DES: no simulated time moves):
// the driver's setup and verification door, which notifies no replica.
func (w *World) Block(g gas.GVA, fn func(data []byte)) error {
	b := g.Block()
	owner, held := w.Owner(b, g.Home()), false
	w.claim(owner, func() {
		if blk, ok := w.locs[owner].store.Get(b); ok {
			held = true
			fn(blk.Data[g.Offset():])
		}
	})
	if !held {
		return fmt.Errorf("runtime: block %d not resident at its owner %d", b, owner)
	}
	return nil
}

// freeOwned is the owner's half of freeing b, World.Free's and
// FreeAsync's both, run as the owner: b's replica set and its copy go.
// It reports false when b is not resident here.
func (l *Locality) freeOwned(b gas.BlockID) bool {
	if _, ok := l.space.Directory().TakeReplicas(b); ok {
		l.w.replCount.Add(-1)
	}
	_, ok := l.store.Remove(b)
	return ok
}

// sweepFree is the other half: every rank drops its holder copy and
// record of b and forgets every translation of b, host and NIC, each as
// that rank through write.
func (w *World) sweepFree(b gas.BlockID, home int, write rankWrite) {
	for _, loc := range w.locs {
		write(loc.rank, func() {
			loc.dropReplica(b)
			loc.space.OnFree(b, home)
		})
	}
}
