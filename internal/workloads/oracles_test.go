package workloads

import (
	"fmt"

	"nmvgas/internal/gas"
	"nmvgas/internal/parcel"
)

// Reference oracles the tests compare the distributed workloads against.
// They read block stores directly from the driver, so no program links
// them.

// SeqSSSP computes reference weighted distances (Dijkstra with a simple
// binary heap) for validation. Unreached vertices get ^uint32(0).
func (g *Graph) SeqSSSP(root uint32) []uint32 {
	const inf = ^uint32(0)
	dist := make([]uint32, g.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[root] = 0
	type item struct {
		v uint32
		d uint32
	}
	heap := []item{{root, 0}}
	push := func(it item) {
		heap = append(heap, it)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].d <= heap[i].d {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() item {
		top := heap[0]
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && heap[l].d < heap[small].d {
				small = l
			}
			if r < len(heap) && heap[r].d < heap[small].d {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}
	for len(heap) > 0 {
		it := pop()
		if it.d > dist[it.v] {
			continue
		}
		outs, ws := g.OutW(it.v)
		for e, u := range outs {
			if nd := it.d + ws[e]; nd < dist[u] {
				dist[u] = nd
				push(item{u, nd})
			}
		}
	}
	return dist
}

// Expected returns the node the chase must land on after `hops` hops —
// computed by walking the stored pointers directly.
func (c *Chase) Expected(hops uint64) gas.GVA {
	g := c.lay.BlockAt(0)
	for i := uint64(0); i < hops; i++ {
		blk := c.mustFind(g.Block())
		g = gas.GVA(parcel.U64(blk.Data, 0))
	}
	return g
}

// Total sums all bins — must equal the number of increments issued.
func (h *Histogram) Total() uint64 {
	h.mu.Lock()
	lay := h.lay
	h.mu.Unlock()
	var sum uint64
	for d := uint32(0); d < lay.NBlocks; d++ {
		blk := h.mustFind(lay.Base.Block() + gas.BlockID(d))
		for off := 0; off+8 <= len(blk.Data); off += 8 {
			sum += parcel.U64(blk.Data, off)
		}
	}
	return sum
}

func (h *Histogram) mustFind(b gas.BlockID) *gas.Block {
	for r := 0; r < h.w.Ranks(); r++ {
		if blk, ok := h.w.Locality(r).Store().Get(b); ok {
			return blk
		}
	}
	panic(fmt.Sprintf("histogram: block %d unreachable", b))
}

// HotBlock returns the table index of tenant r's current hottest block
// (the Zipf mode after phase rotation) — used by tests to check the
// policy moved the right data.
func (tn *Tenants) HotBlock(r int) uint32 {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return uint32(r)*tn.perTenant + (tn.phase*tn.stride)%tn.perTenant
}
