package netsim

import (
	"fmt"
	"strconv"
	"strings"
)

// Topology maps a (src, dst) pair to a hop count and a bandwidth taper.
// The paper's clusters are fat-tree-ish: most of the evaluation behaves
// like a crossbar, but in-network forwarding costs depend on where the
// forwarding NIC sits, so the harness can swap in a two-tier topology to
// check that the conclusions survive oversubscription.
type Topology interface {
	// Hops returns the number of wire traversals between two ranks
	// (>= 1 for distinct ranks).
	Hops(src, dst int) int
	// BWFactor scales per-byte serialization for the path (1.0 = full
	// link speed; > 1 models oversubscription).
	BWFactor(src, dst int) float64
	Name() string
	// Domains splits a world of ranks into contiguous domains of size
	// ranks each (the last may be short) such that two ranks in different
	// domains are at least hops apart: the sharded engine's unit of
	// placement and, at Model.Latency × hops, its lookahead.
	Domains(ranks int) (size, hops int)
}

// Crossbar is the default full-bisection topology: one hop everywhere,
// full bandwidth.
type Crossbar struct{}

// Hops returns 1 for every distinct pair.
func (Crossbar) Hops(src, dst int) int { return 1 }

// BWFactor returns 1 (no taper).
func (Crossbar) BWFactor(src, dst int) float64 { return 1 }

// Name returns "crossbar".
func (Crossbar) Name() string { return "crossbar" }

// Domains returns one-rank domains one hop apart.
func (Crossbar) Domains(int) (size, hops int) { return 1, 1 }

// TwoTier groups ranks into pods of PodSize behind an oversubscribed
// spine: intra-pod traffic is one hop at full bandwidth; inter-pod
// traffic crosses the spine (three hops) at Oversub× serialization.
type TwoTier struct {
	PodSize int
	Oversub float64
}

// NewTwoTier validates and builds a two-tier topology.
func NewTwoTier(podSize int, oversub float64) TwoTier {
	if podSize < 1 {
		panic(fmt.Sprintf("netsim: pod size %d", podSize))
	}
	if !(oversub >= 1) {
		panic(fmt.Sprintf("netsim: oversubscription %v < 1", oversub))
	}
	return TwoTier{PodSize: podSize, Oversub: oversub}
}

func (t TwoTier) pod(r int) int { return r / t.PodSize }

// Hops returns 1 inside a pod, 3 across the spine.
func (t TwoTier) Hops(src, dst int) int {
	if t.pod(src) == t.pod(dst) {
		return 1
	}
	return 3
}

// BWFactor returns 1 inside a pod, Oversub across the spine.
func (t TwoTier) BWFactor(src, dst int) float64 {
	if t.pod(src) == t.pod(dst) {
		return 1
	}
	return t.Oversub
}

// Domains returns the pods, 3 hops apart.
func (t TwoTier) Domains(int) (size, hops int) { return t.PodSize, 3 }

// Name returns a descriptive label.
func (t TwoTier) Name() string {
	return fmt.Sprintf("two-tier(pod=%d,oversub=%.1fx)", t.PodSize, t.Oversub)
}

// FatTree is a three-level k-ary-style fat tree: LeafSize ranks share an
// edge switch, PodLeaves edge switches share a pod's aggregation layer,
// and pods meet at the core. Hop counts follow the switch levels a path
// climbs (1 intra-leaf, 3 intra-pod, 5 inter-pod) and bandwidth tapers
// by the per-level oversubscription — the distance structure the paper's
// in-network forwarding argument actually depends on.
type FatTree struct {
	// LeafSize is the number of ranks behind one edge switch (>= 1).
	LeafSize int
	// PodLeaves is the number of edge switches per pod (>= 1).
	PodLeaves int
	// EdgeOversub is the edge→aggregation oversubscription factor (>= 1),
	// paid by any path leaving its leaf.
	EdgeOversub float64
	// CoreOversub is the aggregation→core factor (>= 1), paid on top by
	// paths leaving their pod.
	CoreOversub float64
}

// NewFatTree validates and builds a fat-tree topology.
func NewFatTree(leafSize, podLeaves int, edgeOversub, coreOversub float64) FatTree {
	if leafSize < 1 || podLeaves < 1 {
		panic(fmt.Sprintf("netsim: fat tree leaf=%d podLeaves=%d", leafSize, podLeaves))
	}
	if !(edgeOversub >= 1 && coreOversub >= 1) {
		panic(fmt.Sprintf("netsim: fat tree oversubscription %v/%v < 1", edgeOversub, coreOversub))
	}
	return FatTree{LeafSize: leafSize, PodLeaves: podLeaves, EdgeOversub: edgeOversub, CoreOversub: coreOversub}
}

func (t FatTree) leaf(r int) int { return r / t.LeafSize }
func (t FatTree) pod(r int) int  { return r / (t.LeafSize * t.PodLeaves) }

// Hops returns 1 inside a leaf, 3 inside a pod, 5 across the core.
func (t FatTree) Hops(src, dst int) int {
	switch {
	case t.leaf(src) == t.leaf(dst):
		return 1
	case t.pod(src) == t.pod(dst):
		return 3
	}
	return 5
}

// BWFactor tapers by the highest level the path climbs.
func (t FatTree) BWFactor(src, dst int) float64 {
	switch {
	case t.leaf(src) == t.leaf(dst):
		return 1
	case t.pod(src) == t.pod(dst):
		return t.EdgeOversub
	}
	return t.EdgeOversub * t.CoreOversub
}

// Domains returns the pods, 5 hops apart, or in a world of one pod its
// leaves, 3 hops apart.
func (t FatTree) Domains(ranks int) (size, hops int) {
	if ranks <= t.LeafSize*t.PodLeaves {
		return t.LeafSize, 3
	}
	return t.LeafSize * t.PodLeaves, 5
}

// Name returns a descriptive label.
func (t FatTree) Name() string {
	return fmt.Sprintf("fat-tree(leaf=%d,pod=%d,edge=%.1fx,core=%.1fx)",
		t.LeafSize, t.PodLeaves, t.EdgeOversub, t.CoreOversub)
}

// Dragonfly groups ranks behind all-to-all-connected routers: intra-group
// traffic is one local hop; inter-group traffic takes local→global→local
// (3 hops) over oversubscribed global links. It is the low-diameter
// counterpoint to the fat tree: distance saturates at one global link, so
// forwarding cost differences show up in bandwidth taper, not hop count.
type Dragonfly struct {
	// GroupSize is the number of ranks per group (>= 1).
	GroupSize int
	// GlobalOversub is the global-link oversubscription factor (>= 1).
	GlobalOversub float64
}

// NewDragonfly validates and builds a dragonfly topology.
func NewDragonfly(groupSize int, globalOversub float64) Dragonfly {
	if groupSize < 1 {
		panic(fmt.Sprintf("netsim: dragonfly group size %d", groupSize))
	}
	if !(globalOversub >= 1) {
		panic(fmt.Sprintf("netsim: dragonfly oversubscription %v < 1", globalOversub))
	}
	return Dragonfly{GroupSize: groupSize, GlobalOversub: globalOversub}
}

func (t Dragonfly) group(r int) int { return r / t.GroupSize }

// Hops returns 1 inside a group, 3 across a global link.
func (t Dragonfly) Hops(src, dst int) int {
	if t.group(src) == t.group(dst) {
		return 1
	}
	return 3
}

// BWFactor returns 1 inside a group, GlobalOversub across groups.
func (t Dragonfly) BWFactor(src, dst int) float64 {
	if t.group(src) == t.group(dst) {
		return 1
	}
	return t.GlobalOversub
}

// Domains returns the groups, 3 hops apart.
func (t Dragonfly) Domains(int) (size, hops int) { return t.GroupSize, 3 }

// Name returns a descriptive label.
func (t Dragonfly) Name() string {
	return fmt.Sprintf("dragonfly(group=%d,global=%.1fx)", t.GroupSize, t.GlobalOversub)
}

// ParseTopology parses a compact topology spec for benchmarks and CLIs:
//
//	crossbar
//	two-tier[:pod=P,oversub=F]
//	fat-tree[:leaf=L,pod=P,edge=F,core=F]
//	dragonfly[:group=G,oversub=F]
//
// Omitted parameters default to a balanced shape for the given rank
// count (√ranks-sized leaves/groups, 4× oversubscription). An empty
// spec is the crossbar. Sizes lie in [1, 2^20], so leaf × pod cannot
// overflow, and factors in [1, 1024], so a tapered wire time stays a
// finite delay the engine can schedule.
func ParseTopology(spec string, ranks int) (Topology, error) {
	const maxSize, maxFactor = 1 << 20, 1024
	name, params, _ := strings.Cut(strings.TrimSpace(spec), ":")
	kv := map[string]string{}
	if params != "" {
		for _, term := range strings.Split(params, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(term), "=")
			if !ok {
				return nil, fmt.Errorf("netsim: topology parameter %q is not key=value", term)
			}
			kv[k] = v
		}
	}
	geti := func(k string, def int) (int, error) {
		v, ok := kv[k]
		if !ok {
			return def, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxSize {
			return 0, fmt.Errorf("netsim: topology parameter %s=%q: want an integer in [1, %d]", k, v, maxSize)
		}
		return n, nil
	}
	getf := func(k string, def float64) (float64, error) {
		v, ok := kv[k]
		if !ok {
			return def, nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f >= 1 && f <= maxFactor) { // NaN fails both
			return 0, fmt.Errorf("netsim: topology parameter %s=%q: want a factor in [1, %d]", k, v, maxFactor)
		}
		return f, nil
	}
	side := 1
	for side*side < ranks {
		side++
	}
	switch name {
	case "", "crossbar":
		return Crossbar{}, nil
	case "two-tier":
		pod, err := geti("pod", side)
		if err != nil {
			return nil, err
		}
		over, err := getf("oversub", 4)
		if err != nil {
			return nil, err
		}
		return NewTwoTier(pod, over), nil
	case "fat-tree":
		leaf, err := geti("leaf", side)
		if err != nil {
			return nil, err
		}
		pod, err := geti("pod", 2)
		if err != nil {
			return nil, err
		}
		edge, err := getf("edge", 2)
		if err != nil {
			return nil, err
		}
		core, err := getf("core", 2)
		if err != nil {
			return nil, err
		}
		return NewFatTree(leaf, pod, edge, core), nil
	case "dragonfly":
		group, err := geti("group", side)
		if err != nil {
			return nil, err
		}
		over, err := getf("oversub", 4)
		if err != nil {
			return nil, err
		}
		return NewDragonfly(group, over), nil
	}
	return nil, fmt.Errorf("netsim: unknown topology %q (want crossbar, two-tier, fat-tree, or dragonfly)", name)
}
