package runtime

import (
	"sync/atomic"

	"nmvgas/internal/gas"
	"nmvgas/internal/parcel"
)

// Asynchronous, in-runtime allocation: unlike the driver-side Alloc*
// shortcuts, this path creates backing blocks through parcels executed at
// each home locality, so actions can allocate global memory mid-program
// and the allocation traffic is visible to the simulated fabric. Block
// numbers still come from the shared sequence (see gas.Sequence for why
// that shortcut is retained).

// allocBlocks payload: bsize u32, count u32, ids... u32 each.
func allocBlocks(c *Ctx) {
	p := c.P.Payload
	bsize := parcel.U32(p, 0)
	n := int(parcel.U32(p, 4))
	for i := 0; i < n; i++ {
		id := gas.BlockID(parcel.U32(p, 8+4*i))
		blk, err := gas.NewDataBlock(id, bsize, c.l.rank)
		if err == nil {
			err = c.l.store.Insert(blk)
		}
		if err != nil {
			c.l.w.fail("rank %d: alloc: %v", c.l.rank, err)
		}
	}
	c.Continue(nil)
}

// EncodeLayout serializes a layout for transport through an LCO.
func EncodeLayout(l gas.Layout) []byte {
	buf := parcel.PutU64(nil, uint64(l.Base))
	buf = parcel.PutU32(buf, l.BSize)
	buf = parcel.PutU32(buf, l.NBlocks)
	buf = parcel.PutU32(buf, uint32(l.Ranks))
	return append(buf, byte(l.Dist))
}

// DecodeLayout parses an EncodeLayout record.
func DecodeLayout(b []byte) gas.Layout {
	return gas.Layout{
		Base:    gas.GVA(parcel.U64(b, 0)),
		BSize:   parcel.U32(b, 8),
		NBlocks: parcel.U32(b, 12),
		Ranks:   int(parcel.U32(b, 16)),
		Dist:    gas.Dist(b[20]),
	}
}

// AllocAsync allocates nblocks blocks of bsize bytes with the given
// distribution, creating the backing storage via parcels to each home.
// The returned future fires with an EncodeLayout record once every home
// has installed its blocks. Its LCOs are made by claiming the rank
// (World.NewFuture), so it is a driver call; on the DES engine, where a
// claim runs at once, an action may call it too.
func (p *Proc) AllocAsync(bsize, nblocks uint32, dist gas.Dist) *LCORef {
	w := p.l.w
	fut := w.NewFuture(p.l.rank)
	base, err := w.seq.Reserve(nblocks)
	if err != nil {
		w.fail("AllocAsync: %v", err)
	}
	lay := gas.Layout{
		Base:    gas.New(p.l.rank, base, 0),
		BSize:   bsize,
		NBlocks: nblocks,
		Ranks:   w.cfg.Ranks,
		Dist:    dist,
	}
	perHome := make(map[int][]gas.BlockID)
	for d := uint32(0); d < nblocks; d++ {
		home := lay.HomeOf(d)
		perHome[home] = append(perHome[home], base+gas.BlockID(d))
	}
	gate := w.NewAndGate(p.l.rank, len(perHome))
	encoded := EncodeLayout(lay)
	gate.OnFire(func([]byte) {
		p.Run(func() {
			p.l.SendParcel(&parcel.Parcel{Action: ALCOSet, Target: fut.G, Payload: encoded})
		})
	})
	p.Run(func() {
		for home, ids := range perHome {
			payload := parcel.PutU32(parcel.PutU32(nil, bsize), uint32(len(ids)))
			for _, id := range ids {
				payload = parcel.PutU32(payload, uint32(id))
			}
			p.l.SendParcel(&parcel.Parcel{
				Action:  aAllocBlocks,
				Target:  w.LocalityGVA(home),
				Payload: payload,
				CAction: ALCOSet,
				CTarget: gate.G,
			})
		}
	})
	return fut
}

// FreeAsync releases an allocation through parcels to the blocks' current
// owners; the returned gate fires when every block is gone. Translation
// state is swept as each owner confirms.
func (p *Proc) FreeAsync(lay gas.Layout) *LCORef {
	w := p.l.w
	gate := w.NewAndGate(p.l.rank, int(lay.NBlocks))
	p.Run(func() {
		for d := uint32(0); d < lay.NBlocks; d++ {
			p.l.SendParcel(&parcel.Parcel{
				Action:  aFreeBlock,
				Target:  lay.BlockAt(d),
				CAction: ALCOSet,
				CTarget: gate.G,
			})
		}
	})
	return gate
}

// freeBlock executes at a block's current owner and frees it there (see
// World.Free). Holding the owner's token, it posts each rank's sweep to
// that rank, and the last sweep to land posts the continuation back here,
// so the stores and directories are clean when it fires. On the classic
// DES engine a post runs at once and the continuation leaves as it did
// from the action.
func freeBlock(c *Ctx) {
	l := c.l
	b := c.P.Target.Block()
	blk, ok := l.store.Get(b)
	if !ok {
		l.w.fail("rank %d: free of non-resident block %d", l.rank, b)
	}
	if blk.Pinned || blk.Kind != gas.KindData {
		l.w.fail("rank %d: free of pinned/non-data block %d", l.rank, b)
	}
	l.freeOwned(b)
	act, cont := c.P.CAction, c.P.CTarget
	var left atomic.Int32 // sweeps still to land, counted on their own ranks
	left.Store(int32(l.w.cfg.Ranks))
	l.w.sweepFree(b, c.P.Target.Home(), func(rank int, fn func()) {
		l.post(rank, func() {
			fn()
			if left.Add(-1) == 0 {
				l.w.post(l.rank, func() { l.continueTo(act, cont, nil) })
			}
		})
	})
}
