package netsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Satellite: topology invariants shared by every Topology implementation.
// Hops must be symmetric, self-distance must be the minimum, and
// bandwidth derating can only slow traffic down (factor ≥ 1).

func topologiesUnderTest() map[string]Topology {
	return map[string]Topology{
		"crossbar":  Crossbar{},
		"two-tier":  NewTwoTier(8, 4),
		"fat-tree":  NewFatTree(4, 4, 2, 2.5),
		"dragonfly": NewDragonfly(16, 4),
	}
}

func TestTopologyHopsSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const ranks = 256
	for name, top := range topologiesUnderTest() {
		for i := 0; i < 2000; i++ {
			a, b := rng.Intn(ranks), rng.Intn(ranks)
			if top.Hops(a, b) != top.Hops(b, a) {
				t.Fatalf("%s: Hops(%d,%d)=%d but Hops(%d,%d)=%d",
					name, a, b, top.Hops(a, b), b, a, top.Hops(b, a))
			}
			if top.BWFactor(a, b) != top.BWFactor(b, a) {
				t.Fatalf("%s: BWFactor asymmetric at (%d,%d)", name, a, b)
			}
		}
	}
}

func TestTopologySelfDistance(t *testing.T) {
	for name, top := range topologiesUnderTest() {
		for _, r := range []int{0, 1, 7, 63, 255} {
			if h := top.Hops(r, r); h != 1 {
				t.Fatalf("%s: Hops(%d,%d) = %d; want 1 (loopback is modeled as one hop)", name, r, r, h)
			}
			if f := top.BWFactor(r, r); f != 1 {
				t.Fatalf("%s: BWFactor(%d,%d) = %v; want 1", name, r, r, f)
			}
		}
	}
}

func TestTopologyBWFactorAtLeastOne(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const ranks = 512
	for name, top := range topologiesUnderTest() {
		for i := 0; i < 2000; i++ {
			a, b := rng.Intn(ranks), rng.Intn(ranks)
			if f := top.BWFactor(a, b); f < 1 {
				t.Fatalf("%s: BWFactor(%d,%d) = %v < 1 — derating cannot speed traffic up", name, a, b, f)
			}
		}
	}
}

// TestFatTreeLevelMonotonicity: hop count and bandwidth derating both
// climb as a pair crosses wider structure — intra-leaf < intra-pod <
// inter-pod.
func TestFatTreeLevelMonotonicity(t *testing.T) {
	ft := NewFatTree(4, 4, 2, 2) // leaves of 4, pods of 16
	sameLeaf := [2]int{0, 3}
	samePod := [2]int{0, 5}
	crossPod := [2]int{0, 17}
	hl := ft.Hops(sameLeaf[0], sameLeaf[1])
	hp := ft.Hops(samePod[0], samePod[1])
	hx := ft.Hops(crossPod[0], crossPod[1])
	if !(hl < hp && hp < hx) {
		t.Fatalf("fat-tree hops not monotone across levels: leaf=%d pod=%d cross=%d", hl, hp, hx)
	}
	if hl != 1 || hp != 3 || hx != 5 {
		t.Fatalf("fat-tree hop levels = %d/%d/%d; want 1/3/5", hl, hp, hx)
	}
	bl := ft.BWFactor(sameLeaf[0], sameLeaf[1])
	bp := ft.BWFactor(samePod[0], samePod[1])
	bx := ft.BWFactor(crossPod[0], crossPod[1])
	if !(bl <= bp && bp <= bx) {
		t.Fatalf("fat-tree BW derating not monotone: %v/%v/%v", bl, bp, bx)
	}
	if bl != 1 || bp != 2 || bx != 4 {
		t.Fatalf("fat-tree BW factors = %v/%v/%v; want 1/2/4", bl, bp, bx)
	}
	// Randomized: hop count at any pair matches the level implied by
	// leaf/pod membership, and derating matches the hop level.
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		a, b := rng.Intn(256), rng.Intn(256)
		wantH := 1
		switch {
		case a/16 != b/16:
			wantH = 5
		case a/4 != b/4:
			wantH = 3
		}
		if h := ft.Hops(a, b); h != wantH {
			t.Fatalf("fat-tree Hops(%d,%d) = %d; want %d", a, b, h, wantH)
		}
	}
}

func TestDragonflyLevels(t *testing.T) {
	df := NewDragonfly(16, 4)
	if h := df.Hops(0, 15); h != 1 {
		t.Fatalf("intra-group hops = %d; want 1", h)
	}
	if h := df.Hops(0, 16); h != 3 {
		t.Fatalf("inter-group hops = %d; want 3 (local, global, local)", h)
	}
	if f := df.BWFactor(0, 15); f != 1 {
		t.Fatalf("intra-group BW factor = %v; want 1", f)
	}
	if f := df.BWFactor(0, 16); f != 4 {
		t.Fatalf("inter-group BW factor = %v; want the global oversubscription 4", f)
	}
}

// checkDomains asserts top's domain bound on a world of ranks: domains
// are non-empty and at least one hop apart, and any two ranks in
// different domains (contiguous blocks of size ranks, so together they
// cover every rank) are at least the stated hops apart.
func checkDomains(t *testing.T, name string, top Topology, ranks int) {
	t.Helper()
	size, hops := top.Domains(ranks)
	if size < 1 || hops < 1 {
		t.Fatalf("%s: Domains(%d) = (%d, %d); want both >= 1", name, ranks, size, hops)
	}
	for a := 0; a < ranks; a++ {
		for b := a + 1; b < ranks; b++ {
			if a/size != b/size && top.Hops(a, b) < hops {
				t.Fatalf("%s: ranks %d and %d lie in different domains of %d but are %d < %d hops apart",
					name, a, b, size, top.Hops(a, b), hops)
			}
		}
	}
}

// TestTopologyDomains pins each topology's domains — the sharded
// engine's placement unit and lookahead — and their bound: a fat tree's
// pods, or the leaves of a world held in one pod.
func TestTopologyDomains(t *testing.T) {
	for _, c := range []struct {
		name       string
		top        Topology
		ranks      int
		size, hops int
	}{
		{"crossbar", Crossbar{}, 64, 1, 1},
		{"two-tier", NewTwoTier(8, 4), 64, 8, 3},
		{"dragonfly", NewDragonfly(16, 4), 64, 16, 3},
		{"fat-tree", NewFatTree(4, 4, 2, 2.5), 64, 16, 5},
		{"fat-tree, one pod", NewFatTree(4, 4, 2, 2.5), 16, 4, 3},
		{"fat-tree, one leaf", NewFatTree(4, 4, 2, 2.5), 4, 4, 3},
		{"fat-tree, a short last pod", NewFatTree(2, 2, 2, 2), 10, 4, 5},
	} {
		if size, hops := c.top.Domains(c.ranks); size != c.size || hops != c.hops {
			t.Fatalf("%s: Domains(%d) = (%d, %d); want (%d, %d)", c.name, c.ranks, size, hops, c.size, c.hops)
		}
		checkDomains(t, c.name, c.top, c.ranks)
	}
}

func TestParseTopology(t *testing.T) {
	cases := []struct {
		spec string
		name string // expected Name() prefix
	}{
		{"", "crossbar"},
		{"crossbar", "crossbar"},
		{"two-tier", "two-tier"},
		{"two-tier:pod=8,oversub=2", "two-tier(pod=8"},
		{"fat-tree", "fat-tree"},
		{"fat-tree:leaf=4,pod=4,edge=2,core=3", "fat-tree(leaf=4,pod=4"},
		{"dragonfly", "dragonfly"},
		{"dragonfly:group=32,oversub=8", "dragonfly(group=32"},
	}
	for _, c := range cases {
		top, err := ParseTopology(c.spec, 64)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", c.spec, err)
		}
		if !strings.HasPrefix(top.Name(), c.name) {
			t.Fatalf("ParseTopology(%q).Name() = %q; want prefix %q", c.spec, top.Name(), c.name)
		}
	}
	for _, bad := range []string{
		"torus",                 // unknown topology
		"two-tier:pod",          // not key=value
		"two-tier:pod=0",        // below minimum
		"two-tier:oversub=0.5",  // factor < 1
		"fat-tree:leaf=x",       // not an integer
		"dragonfly:oversub=abc", // not a float
		// Factors that parse as floats but are no taper: each one used to
		// reach the engine and panic the first switch-crossing send.
		"two-tier:oversub=NaN",
		"two-tier:oversub=Inf",
		"two-tier:oversub=1e308",
		"fat-tree:edge=NaN",
		"fat-tree:core=NaN",
		"dragonfly:oversub=NaN",
		"fat-tree:leaf=4294967296,pod=4294967296", // leaf × pod overflows
	} {
		if _, err := ParseTopology(bad, 64); err == nil {
			t.Fatalf("ParseTopology(%q) accepted a bad spec", bad)
		}
	}
	// Defaults scale with the rank count: the balanced shape uses
	// √ranks-sized groups.
	top, err := ParseTopology("dragonfly", 256)
	if err != nil {
		t.Fatal(err)
	}
	df := top.(Dragonfly)
	if df.GroupSize != 16 {
		t.Fatalf("default dragonfly group for 256 ranks = %d; want 16", df.GroupSize)
	}
}

// FuzzParseTopology: any spec either errors or yields a topology on which
// every distinct pair of a small world is at least one hop apart with a
// finite taper of at least 1, whose domains keep their hop bound at
// several world sizes (checkDomains), and nothing panics. The committed seeds
// under testdata/fuzz/FuzzParseTopology are the non-finite and
// out-of-range factors the parser once accepted.
func FuzzParseTopology(f *testing.F) {
	for _, spec := range []string{"", "two-tier:pod=8,oversub=2", "fat-tree:leaf=4,pod=4,edge=2,core=3", "dragonfly:group=32,oversub=8"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		const ranks = 24
		top, err := ParseTopology(spec, ranks)
		if err != nil {
			return
		}
		_ = top.Name()
		for a := 0; a < ranks; a++ {
			for b := 0; b < ranks; b++ {
				if a == b {
					continue
				}
				if h := top.Hops(a, b); h < 1 {
					t.Fatalf("%q: Hops(%d,%d) = %d < 1", spec, a, b, h)
				}
				if bw := top.BWFactor(a, b); !(bw >= 1) || math.IsInf(bw, 1) {
					t.Fatalf("%q: BWFactor(%d,%d) = %v; want finite and >= 1", spec, a, b, bw)
				}
			}
		}
		for _, n := range []int{1, 2, 7, ranks} {
			checkDomains(t, spec, top, n)
		}
	})
}
