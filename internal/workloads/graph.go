package workloads

import (
	"math/rand"
)

// Graph is a synthetic directed graph in CSR form. The degree sequence is
// Zipf-skewed to approximate the power-law graphs the AGAS literature
// evaluates on (a handful of very-high-degree vertices create hot spots).
//
// The CSR arrays are process-global, read-only after construction; the
// BFS actions partition their *work* by block ownership, which is the
// distributed part the experiments measure. (Shipping the adjacency
// itself as GAS bytes would only add constant-factor decode work to every
// mode equally; the substitution is documented in DESIGN.md.)
type Graph struct {
	N       uint32
	Offsets []uint32 // len N+1
	Targets []uint32 // len Offsets[N]
	// Weights parallels Targets (edge weights in [1, 15]); BFS ignores
	// it, SSSP relaxes with it.
	Weights []uint32
}

// GenGraph builds a graph with n vertices and ~avgDegree edges per
// vertex. Deterministic for a given seed.
func GenGraph(n uint32, avgDegree int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	// Zipf-skewed out-degrees, rescaled to hit the requested average.
	zip := rand.NewZipf(rng, 1.4, 1, uint64(4*avgDegree))
	degs := make([]int, n)
	total := 0
	for i := range degs {
		degs[i] = int(zip.Uint64()) + 1
		total += degs[i]
	}
	want := int(n) * avgDegree
	// Top up or trim uniformly so the edge count is predictable.
	for total < want {
		degs[rng.Intn(int(n))]++
		total++
	}
	for total > want {
		v := rng.Intn(int(n))
		if degs[v] > 1 {
			degs[v]--
			total--
		}
	}
	g := &Graph{N: n, Offsets: make([]uint32, n+1)}
	for i := uint32(0); i < n; i++ {
		g.Offsets[i+1] = g.Offsets[i] + uint32(degs[i])
	}
	g.Targets = make([]uint32, g.Offsets[n])
	g.Weights = make([]uint32, g.Offsets[n])
	for i := uint32(0); i < n; i++ {
		for e := g.Offsets[i]; e < g.Offsets[i+1]; e++ {
			g.Targets[e] = rng.Uint32() % n
			g.Weights[e] = 1 + rng.Uint32()%15
		}
	}
	return g
}

// Edges returns the edge count.
func (g *Graph) Edges() int { return len(g.Targets) }

// Out returns v's adjacency list.
func (g *Graph) Out(v uint32) []uint32 {
	return g.Targets[g.Offsets[v]:g.Offsets[v+1]]
}

// OutW returns v's adjacency list with weights.
func (g *Graph) OutW(v uint32) ([]uint32, []uint32) {
	return g.Targets[g.Offsets[v]:g.Offsets[v+1]], g.Weights[g.Offsets[v]:g.Offsets[v+1]]
}

// SeqBFS computes reference distances on the driver for validation.
// Unreached vertices get ^uint32(0).
func (g *Graph) SeqBFS(root uint32) []uint32 {
	const inf = ^uint32(0)
	dist := make([]uint32, g.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[root] = 0
	frontier := []uint32{root}
	for len(frontier) > 0 {
		var next []uint32
		for _, v := range frontier {
			for _, u := range g.Out(v) {
				if dist[u] == inf {
					dist[u] = dist[v] + 1
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return dist
}
