package loadbal

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"nmvgas/internal/gas"
	"nmvgas/internal/runtime"
)

// PolicyConfig tunes the closed-loop controller. The zero value of every
// field gets a sensible default from NewPolicy; Layout is required.
type PolicyConfig struct {
	// Layout is the allocation under management.
	Layout gas.Layout
	// From is the rank issuing migrations (the controller's seat).
	From int
	// MoveBudget caps migrations per epoch (default 4): rebalancing is
	// supposed to converge over a few epochs, not thrash the directory
	// in one.
	MoveBudget int
	// MinSamples is the minimum sampled accesses in an epoch before the
	// controller acts at all (default 64): idle or warming systems give
	// too noisy a signal to move data on.
	MinSamples uint64
	// HotShare is the fraction of the epoch's sampled accesses a block
	// must attract to be considered hot (default 0.02).
	HotShare float64
	// Replicas enables adaptive replication when > 0: read-dominated
	// hot blocks with at least minReaders distinct readers get a live
	// replica set of this size (World.ReplicateLive), torn down again
	// when the block cools or turns write-heavy.
	Replicas int
}

const (
	// dominance is the hysteresis ratio for migration: a remote rank
	// must drive at least dominance× the traffic the current owner
	// drives locally before the block moves to it.
	dominance = 2.0
	// cooldown is the number of epochs a freshly moved block is immune
	// from further moves — the second anti-thrash guard.
	cooldown = 2
	// readShare is the read fraction above which a hot block counts as
	// read-dominated.
	readShare = 0.9
	// minReaders is the distinct-reader floor for replication:
	// replicating for a single consumer is strictly worse than migrating
	// to it.
	minReaders = 3
)

func (c PolicyConfig) withDefaults() PolicyConfig {
	if c.MoveBudget <= 0 {
		c.MoveBudget = 4
	}
	if c.MinSamples == 0 {
		c.MinSamples = 64
	}
	if c.HotShare <= 0 {
		c.HotShare = 0.02
	}
	return c
}

// PolicyStats accumulates controller activity across epochs.
type PolicyStats struct {
	Epochs       int64
	Samples      uint64 // sampled accesses consumed
	IdleEpochs   int64  // epochs skipped below MinSamples
	Moves        int64  // migrations completed (MigrateOK only)
	MoveFailures int64  // migrations refused or failed
	Deferred     int64  // hot blocks deferred by budget or cooldown
	Replications int64  // replica sets created
	Teardowns    int64  // replica sets removed
}

// Report is one epoch's outcome.
type Report struct {
	Samples      uint64   // sampled accesses this epoch
	Loads        []uint64 // per-rank sampled serving load
	Imbalance    float64  // max/mean of Loads
	Moves        int      // blocks migrated this epoch
	MoveFailures int
	Replications int
	Teardowns    int
	Acted        bool // false when the epoch was skipped (below MinSamples)
}

// Policy is the epoch-driven closed-loop controller: each Step consumes
// the heat tracker's current epoch (merged across every rank's sketch),
// migrates hot blocks toward their dominant accessor — under a move
// budget and per-block cooldown so a shifting hotspot converges instead
// of thrashing — and, when configured, installs live replica sets for
// read-dominated hot blocks and tears them down once they cool.
type Policy struct {
	w   *runtime.World
	cfg PolicyConfig

	// mu guards the controller state below. Driver-stepped policies never
	// contend; pulse-driven ones are stepped from tick context while the
	// driver reads Stats/LastReport, and async move completions land from
	// engine context.
	mu   sync.Mutex
	cool map[gas.BlockID]int // block -> epochs of move immunity left
	repl map[gas.BlockID]bool
	st   PolicyStats
	last Report

	// moved and failed count StepAsync's completions outside mu: on the
	// goroutine engine a completion can run inside a claim that plan
	// makes while holding mu (a claim runs the rank's queued work), where
	// taking mu would wait for itself.
	moved, failed atomic.Int64
}

// NewPolicy validates the world against the config: heat tracking must
// be on and the address space must support migration.
func NewPolicy(w *runtime.World, cfg PolicyConfig) (*Policy, error) {
	if !w.HeatEnabled() {
		return nil, errors.New("loadbal: policy needs Config.Heat.Enabled")
	}
	if !w.Caps().Migration {
		return nil, fmt.Errorf("loadbal: address space %q cannot migrate", w.Caps().Name)
	}
	if cfg.Layout.NBlocks == 0 {
		return nil, errors.New("loadbal: policy needs a layout")
	}
	cfg = cfg.withDefaults()
	if cfg.Replicas > 0 && !w.Caps().Replication {
		return nil, fmt.Errorf("loadbal: address space %q cannot replicate", w.Caps().Name)
	}
	return &Policy{
		w:    w,
		cfg:  cfg,
		cool: make(map[gas.BlockID]int),
		repl: make(map[gas.BlockID]bool),
	}, nil
}

// Stats returns the accumulated controller counters.
func (p *Policy) Stats() PolicyStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.st
	st.Moves += p.moved.Load()
	st.MoveFailures += p.failed.Load()
	return st
}

// LastReport returns the most recent epoch's report (zero before the
// first Step/StepAsync). Pulse-driven runs read it where driver-stepped
// runs would read Step's return value.
func (p *Policy) LastReport() Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

// blockAgg is one block's merged epoch heat.
type blockAgg struct {
	b        gas.BlockID
	total    uint64
	reads    uint64
	bySrc    map[int]uint64
	readSrcs map[int]bool // ranks that read the block (distinct readers)
}

// blockLayout carves the single-block layout addressing block d of lay —
// DistLocal pins HomeOf(0) to the block's real home, so the per-block
// replicate/unreplicate calls resolve the same owner the full layout
// would.
func blockLayout(lay gas.Layout, d uint32) gas.Layout {
	return gas.Layout{Base: lay.BlockAt(d), BSize: lay.BSize, NBlocks: 1, Ranks: lay.Ranks, Dist: gas.DistLocal}
}

// Step runs one control epoch: consume and reset the heat window, act
// on it, and wait for every issued migration to complete. Call it from
// the driver with the workload quiesced (between waves); under
// EngineDES that makes the whole loop deterministic.
func (p *Policy) Step() (Report, error) {
	rep, moves, errs := p.plan()
	moved, err := ApplyWait(p.w, p.cfg.From, moves)
	if err != nil {
		errs = append(errs, err)
	}
	rep.Moves = moved
	rep.MoveFailures = len(moves) - moved
	p.mu.Lock()
	p.st.Moves += int64(moved)
	p.st.MoveFailures += int64(len(moves) - moved)
	p.last = rep
	p.mu.Unlock()
	return rep, errors.Join(errs...)
}

// StepAsync is Step without the wait: migrations are issued and their
// outcomes are counted into Stats as each completes (MigrateOK
// increments Moves, anything else MoveFailures). It never calls
// World.Wait, so it is legal from pulse-tick context, where re-entering
// the engine is not; Report.Moves is the issued count.
func (p *Policy) StepAsync() (Report, error) {
	rep, moves, errs := p.plan()
	for _, fut := range Apply(p.w, p.cfg.From, moves) {
		fut.OnFire(func(v []byte) {
			if runtime.MigrateStatus(v) == runtime.MigrateOK {
				p.moved.Add(1)
			} else {
				p.failed.Add(1)
			}
		})
	}
	rep.Moves = len(moves)
	p.mu.Lock()
	p.last = rep
	p.mu.Unlock()
	return rep, errors.Join(errs...)
}

// AttachPulse registers the policy as a runtime-pulse client running one
// StepAsync epoch every `every` pulses (minimum 1): the in-runtime
// replacement for the driver epoch loop, with the cadence coming from
// Config.Pulse.Period instead of workload structure. Outcomes accumulate
// in Stats and LastReport.
func (p *Policy) AttachPulse(every uint64) {
	if every < 1 {
		every = 1
	}
	p.w.OnPulse("loadbal.policy", func(pi runtime.PulseInfo) {
		if pi.Seq%every != 0 {
			return
		}
		_, _ = p.StepAsync()
	})
}

// plan consumes one heat epoch and decides what to do: replica installs
// and teardowns execute inline (they are synchronous driver APIs), and
// the migration list is returned for the caller to apply synchronously
// (Step) or asynchronously (StepAsync).
func (p *Policy) plan() (Report, []Move, []error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	loads, samples := p.w.HeatEpoch()
	var rep Report
	rep.Loads = loads
	rep.Imbalance = Imbalance(loads)
	for _, s := range samples {
		rep.Samples += s.Count - s.Err
	}
	p.st.Epochs++
	p.st.Samples += rep.Samples

	// Cooldowns tick at the END of each epoch (tickCooldowns), after the
	// action checks, so cooldown=N really grants N full epochs of
	// immunity to a freshly moved block.
	if rep.Samples < p.cfg.MinSamples {
		p.st.IdleEpochs++
		p.tickCooldowns()
		return rep, nil, nil
	}
	rep.Acted = true

	// Merge the per-rank sketch entries into per-block aggregates,
	// keeping only blocks of the managed layout. Guaranteed counts
	// (Count-Err) keep eviction noise from manufacturing hotspots.
	lay := p.cfg.Layout
	base := lay.Base.Block()
	agg := make(map[gas.BlockID]*blockAgg)
	for _, s := range samples {
		if s.Block < base || s.Block >= base+gas.BlockID(lay.NBlocks) {
			continue
		}
		n := s.Count - s.Err
		if n == 0 {
			continue
		}
		a := agg[s.Block]
		if a == nil {
			a = &blockAgg{b: s.Block, bySrc: make(map[int]uint64), readSrcs: make(map[int]bool)}
			agg[s.Block] = a
		}
		a.total += n
		a.bySrc[s.Src] += n
		if s.Read {
			a.reads += n
			a.readSrcs[s.Src] = true
		}
	}
	hot := make([]*blockAgg, 0, len(agg))
	for _, a := range agg {
		hot = append(hot, a)
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].total != hot[j].total {
			return hot[i].total > hot[j].total
		}
		return hot[i].b < hot[j].b
	})

	hotFloor := uint64(p.cfg.HotShare * float64(rep.Samples))
	var moves []Move
	var errs []error
	for _, a := range hot {
		if a.total < hotFloor {
			break // sorted: everything after is colder
		}
		d := uint32(a.b - base)
		owner := p.owner(d)
		readFrac := float64(a.reads) / float64(a.total)

		if p.repl[a.b] {
			// Already replicated by us: tear the set down if the block
			// turned write-heavy (coherence fan-out now outweighs local
			// reads). Cold blocks are handled after the loop.
			if readFrac < readShare {
				p.teardown(lay, d, &rep, &errs)
			}
			continue
		}

		if p.cfg.Replicas > 0 && readFrac >= readShare && len(a.readSrcs) >= minReaders {
			// Read-dominated with a spread audience: replication serves
			// every reader locally, where migration could satisfy one.
			if err := p.w.ReplicateLive(blockLayout(lay, d), p.cfg.Replicas); err != nil {
				errs = append(errs, fmt.Errorf("replicate block %d: %w", a.b, err))
			} else {
				p.repl[a.b] = true
				p.st.Replications++
				rep.Replications++
			}
			continue
		}

		// Migration: move toward the dominant accessor, with hysteresis
		// against the owner's own local traffic.
		dom, domN := owner, uint64(0)
		for src, n := range a.bySrc {
			if n > domN || (n == domN && src < dom) {
				dom, domN = src, n
			}
		}
		if dom == owner {
			continue
		}
		if float64(domN) < dominance*float64(a.bySrc[owner]) {
			continue
		}
		if p.cool[a.b] > 0 {
			p.st.Deferred++
			continue
		}
		if len(moves) >= p.cfg.MoveBudget {
			p.st.Deferred++
			continue
		}
		moves = append(moves, Move{Block: lay.BlockAt(d), To: dom})
	}

	// Tear down replica sets whose blocks went cold: they no longer pay
	// for their coherence footprint.
	for b := range p.repl {
		a := agg[b]
		if a == nil || a.total < hotFloor {
			p.teardown(lay, uint32(b-base), &rep, &errs)
		}
	}

	// Cooldown is charged at issue time — for the async path the outcome
	// is not known yet, and re-proposing a move mid-flight would be the
	// thrash the cooldown exists to prevent.
	p.tickCooldowns()
	for _, mv := range moves {
		p.cool[mv.Block.Block()] = cooldown
	}
	return rep, moves, errs
}

func (p *Policy) tickCooldowns() {
	for b, c := range p.cool {
		if c <= 1 {
			delete(p.cool, b)
		} else {
			p.cool[b] = c - 1
		}
	}
}

// owner resolves block d's current master through the home's directory.
func (p *Policy) owner(d uint32) int {
	lay := p.cfg.Layout
	return p.w.Owner(lay.BlockAt(d).Block(), lay.HomeOf(d))
}

func (p *Policy) teardown(lay gas.Layout, d uint32, rep *Report, errs *[]error) {
	b := lay.BlockAt(d).Block()
	if err := p.w.Unreplicate(blockLayout(lay, d)); err != nil {
		*errs = append(*errs, fmt.Errorf("unreplicate block %d: %w", b, err))
		return
	}
	delete(p.repl, b)
	p.st.Teardowns++
	rep.Teardowns++
}
