package workloads

import (
	"math"

	"nmvgas/internal/gas"
	"nmvgas/internal/parcel"
)

// Reference oracles the tests compare the distributed workloads against.
// They read block data from the driver (World.Block), and no program
// links them.

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
		at(c.w, g, func(data []byte) { g = gas.GVA(parcel.U64(data, 0)) })
	}
	return g
}

// Total sums all bins — must equal the number of increments issued.
func (h *Histogram) Total() uint64 {
	var sum uint64
	for d := uint32(0); d < h.lay.NBlocks; d++ {
		at(h.w, h.lay.BlockAt(d), func(data []byte) {
			for off := 0; off+8 <= len(data); off += 8 {
				sum += parcel.U64(data, off)
			}
		})
	}
	return sum
}

// counts sums what the last Run issued over the ranks.
func (o *oneSided) counts() (reads, writes int64) {
	for _, st := range o.st {
		reads += st.reads
		writes += st.writes
	}
	return reads, writes
}

// HotBlock returns the table index of tenant r's current hottest block
// (the Zipf mode after phase rotation) — used by tests to check the
// policy moved the right data.
func (tn *Tenants) HotBlock(r int) uint32 {
	return uint32(r)*tn.perTenant + (tn.phase*tn.stride)%tn.perTenant
}

// Cell reads cell i at its block's owner.
func (s *Stencil) Cell(i uint64) (v float64) {
	at(s.w, s.cellAddr(i), func(data []byte) { v = math.Float64frombits(parcel.U64(data, 0)) })
	return v
}

// Cells returns the total cell count.
func (s *Stencil) Cells() uint64 { return uint64(s.lay.NBlocks) * uint64(s.perB) }
