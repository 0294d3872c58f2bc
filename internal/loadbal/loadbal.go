// Package loadbal implements migration-based load balancing: block heat
// read from the runtime's sampled tracker (Config.Heat), a greedy
// rebalancer that turns observed imbalance into block migrations, and an
// epoch-driven closed-loop Policy (policy.go) that migrates hot blocks
// toward their dominant accessor and adaptively replicates read-hot
// ones. This is the payoff side of the paper's argument — migration only
// matters if a policy can exploit it — and only the AGAS modes can apply
// its plans.
package loadbal

import (
	"errors"
	"fmt"
	"sort"

	"nmvgas/internal/gas"
	"nmvgas/internal/runtime"
)

// HeatMap aggregates the world's current heat samples into per-block
// guaranteed counts for the blocks of one layout. The sketch's
// space-saving bound makes Count-Err a floor on the true sampled
// frequency; using the floor keeps the planner from chasing blocks whose
// apparent heat is eviction noise. Returns nil when heat tracking is off.
func HeatMap(w *runtime.World, lay gas.Layout) map[gas.BlockID]uint64 {
	samples := w.HeatSamples()
	if samples == nil {
		return nil
	}
	base := lay.Base.Block()
	heat := make(map[gas.BlockID]uint64)
	for _, s := range samples {
		if s.Block < base || s.Block >= base+gas.BlockID(lay.NBlocks) {
			continue
		}
		heat[s.Block] += s.Count - s.Err
	}
	return heat
}

// Move is one planned migration.
type Move struct {
	Block gas.GVA
	To    int
}

// blockLoad pairs a block of a layout with its heat and current owner.
type blockLoad struct {
	d     uint32
	gva   gas.GVA
	heat  uint64
	owner int
}

// blocksByHeat lists a layout's blocks with their resolved owners,
// hottest first (ties by block index, so plans are deterministic for a
// given heat snapshot).
func blocksByHeat(w *runtime.World, lay gas.Layout, heat map[gas.BlockID]uint64) []blockLoad {
	blocks := make([]blockLoad, 0, lay.NBlocks)
	for d := uint32(0); d < lay.NBlocks; d++ {
		g := lay.BlockAt(d)
		b := g.Block()
		home := lay.HomeOf(d)
		owner := home
		if dir := w.Locality(home).Directory(); dir != nil {
			owner = dir.Resolve(b, home)
		}
		blocks = append(blocks, blockLoad{d: d, gva: g, heat: heat[b], owner: owner})
	}
	sort.Slice(blocks, func(i, j int) bool {
		if blocks[i].heat != blocks[j].heat {
			return blocks[i].heat > blocks[j].heat
		}
		return blocks[i].d < blocks[j].d
	})
	return blocks
}

// loadHeap is an indexed binary min-heap over per-rank loads, ordered by
// (load, rank) so the minimum is always the least-loaded rank with ties
// to the lowest rank id. pos tracks each rank's heap slot so one rank's
// load can be bumped in O(log R) after assignment.
type loadHeap struct {
	load []uint64 // by rank
	heap []int    // rank ids, heap-ordered
	pos  []int    // rank -> index in heap
}

func newLoadHeap(ranks int) *loadHeap {
	h := &loadHeap{
		load: make([]uint64, ranks),
		heap: make([]int, ranks),
		pos:  make([]int, ranks),
	}
	for r := 0; r < ranks; r++ {
		h.heap[r] = r
		h.pos[r] = r
	}
	return h
}

func (h *loadHeap) less(i, j int) bool {
	a, b := h.heap[i], h.heap[j]
	if h.load[a] != h.load[b] {
		return h.load[a] < h.load[b]
	}
	return a < b
}

func (h *loadHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

func (h *loadHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}

// min returns the least-loaded rank (lowest id on ties).
func (h *loadHeap) min() int { return h.heap[0] }

// add charges w to rank r and restores heap order.
func (h *loadHeap) add(r int, w uint64) {
	h.load[r] += w
	h.down(h.pos[r])
}

// Plan computes a greedy rebalancing of one allocation: blocks are
// assigned, hottest first, to the currently least-loaded rank, and a move
// is emitted whenever that differs from the block's present owner. The
// least-loaded lookup runs on an indexed min-heap — O(B log R) overall
// instead of the O(B·R) linear scan (see BenchmarkPlan for the gap at
// 4096 localities) — and ties go to the block's current owner, then the
// lowest rank, exactly as the linear scan resolved them. The plan is
// deterministic for a given heat snapshot.
func Plan(w *runtime.World, lay gas.Layout, heat map[gas.BlockID]uint64) []Move {
	blocks := blocksByHeat(w, lay, heat)
	h := newLoadHeap(w.Ranks())
	var moves []Move
	for _, bl := range blocks {
		best := h.min()
		if h.load[bl.owner] == h.load[best] {
			// The owner is tied with the global minimum: staying put is
			// free, so the tie goes to it.
			best = bl.owner
		}
		h.add(best, bl.heat)
		if best != bl.owner {
			moves = append(moves, Move{Block: bl.gva, To: best})
		}
	}
	return moves
}

// Apply issues the planned migrations from rank `from` and returns the
// futures to wait on.
func Apply(w *runtime.World, from int, moves []Move) []*runtime.LCORef {
	futs := make([]*runtime.LCORef, 0, len(moves))
	for _, mv := range moves {
		futs = append(futs, w.Proc(from).Migrate(mv.Block, mv.To))
	}
	return futs
}

// ApplyWait is Apply + wait: it returns the number of blocks that
// actually moved (migration status OK) and joins per-move failures —
// a refused move (pinned, bad target) or a failed wait reduces the count
// and contributes an error instead of being silently reported as moved.
func ApplyWait(w *runtime.World, from int, moves []Move) (int, error) {
	futs := Apply(w, from, moves)
	moved := 0
	var errs []error
	for i, f := range futs {
		v, err := w.Wait(f)
		if err != nil {
			errs = append(errs, fmt.Errorf("move block %v to rank %d: %w", moves[i].Block, moves[i].To, err))
			continue
		}
		if st := runtime.MigrateStatus(v); st != runtime.MigrateOK {
			errs = append(errs, fmt.Errorf("move block %v to rank %d: migrate status %d", moves[i].Block, moves[i].To, st))
			continue
		}
		moved++
	}
	return moved, errors.Join(errs...)
}

// Rebalance is HeatMap + Plan + ApplyWait against the world's live heat
// tracker. It returns the number of blocks that actually moved; the
// error joins every individual migration failure.
func Rebalance(w *runtime.World, from int, lay gas.Layout) (int, error) {
	heat := HeatMap(w, lay)
	if heat == nil {
		return 0, errors.New("loadbal: world has no heat tracker (set Config.Heat.Enabled)")
	}
	return ApplyWait(w, from, Plan(w, lay, heat))
}

// Consolidate moves every block of an allocation to one rank — the
// pointer-chase experiment's "create locality" step.
func Consolidate(w *runtime.World, from int, lay gas.Layout, to int) error {
	var futs []*runtime.LCORef
	for d := uint32(0); d < lay.NBlocks; d++ {
		futs = append(futs, w.Proc(from).Migrate(lay.BlockAt(d), to))
	}
	for _, f := range futs {
		if _, err := w.Wait(f); err != nil {
			return err
		}
	}
	return nil
}

// Imbalance returns max/mean of per-rank loads (1.0 = perfectly even).
func Imbalance(loads []uint64) float64 {
	if len(loads) == 0 {
		return 1
	}
	var sum, max uint64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(loads))
	return float64(max) / mean
}
