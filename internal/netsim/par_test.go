package netsim

import (
	"fmt"
	"testing"
)

// TestRunUntilStride checks the stride-checked drain: the predicate is
// consulted only every stride events, so the engine may overshoot by at
// most stride-1 events, and never stalls short of the goal.
func TestRunUntilStride(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 0; i < 1000; i++ {
		e.At(VTime(i), func() { ran++ })
	}
	const goal, stride = 500, 64
	if ok := e.RunUntilStride(func() bool { return ran >= goal }, stride); !ok {
		t.Fatal("RunUntilStride reported queue exhaustion before the goal")
	}
	if ran < goal || ran >= goal+stride {
		t.Fatalf("ran %d events; want within [%d, %d)", ran, goal, goal+stride)
	}
	// Exhaustion path: predicate never satisfied drains the queue and
	// reports false.
	if ok := e.RunUntilStride(func() bool { return false }, stride); ok {
		t.Fatal("RunUntilStride reported success on an unsatisfiable predicate")
	}
	if ran != 1000 {
		t.Fatalf("exhaustion drain ran %d of 1000", ran)
	}
}

// parTrace runs a deterministic cascading workload on a sharded engine
// over topology top and returns each rank's execution trace, every line
// stamped with the end of the window it ran in. Every event appends only
// to its own rank's slice, so the recording itself is race-free under
// window-parallel workers; equivalence across shard counts is then a
// per-rank slice comparison.
func parTrace(ranks, shards int, top Topology, latency VTime) [][]string {
	drv := NewParEngine(ranks, shards, top, latency)
	defer drv.Shutdown()
	traces := make([][]string, ranks)
	var barrierLog []string // driver/barrier context only: serial by construction

	// Each rank runs a cascade driven by a tiny per-rank LCG: a few
	// self-events at sub-lookahead delays, then a cross-rank send paying
	// at least its wire path (inside the window when it stays within a
	// domain), until the hop budget runs out.
	var hop func(rank int, state uint64, budget int) func()
	hop = func(rank int, state uint64, budget int) func() {
		return func() {
			re := drv.RankEngine(rank)
			traces[rank] = append(traces[rank],
				fmt.Sprintf("%d@%d s=%d b=%d window<%d", rank, re.Now(), state, budget, drv.par.windowEnd))
			if budget == 0 {
				return
			}
			s := state*6364136223846793005 + 1442695040888963407
			// Two rank-local follow-ups inside the lookahead window.
			re.After(VTime(s%97+1), hop(rank, s^1, 0))
			re.After(VTime(s%251+1), hop(rank, s^2, 0))
			// One cross-rank hop, paying at least the wire latency.
			dst := int(s>>32) % ranks
			if dst < 0 {
				dst += ranks
			}
			re.AfterRank(dst, latency*VTime(top.Hops(rank, dst))+VTime(s%503), hop(dst, s^3, budget-1))
			// Occasionally a global action via the barrier.
			if s%5 == 0 {
				at := re.Now()
				re.AtBarrier(func() {
					barrierLog = append(barrierLog, fmt.Sprintf("bar r=%d at=%d s=%d", rank, at, s))
				})
			}
		}
	}
	for r := 0; r < ranks; r++ {
		drv.AtRank(r, VTime(10*r+5), hop(r, uint64(r+1)*0x9E37, 6))
	}
	drv.Run()
	// Fold the barrier log into rank 0's trace so divergence there fails
	// the comparison too.
	traces[0] = append(traces[0], barrierLog...)
	return traces
}

// TestShardedEquivalence is the determinism tentpole at the netsim
// layer: the same seeded workload must produce bit-identical per-rank
// execution traces (times, ranks, cascade states, the windows they ran
// in, barrier log) for every shard count. shards=1 is the reference. On
// the crossbar every rank is its own domain; on the fat tree (pods of 4,
// 5 hops apart, three pods) the windows are 5× wider, sends within a pod
// land inside them, and 2 shards do not divide the pods while 4, 8 and
// 12 exceed them.
func TestShardedEquivalence(t *testing.T) {
	const ranks = 12
	for name, top := range map[string]Topology{"crossbar": Crossbar{}, "fat-tree": NewFatTree(2, 2, 2, 2)} {
		ref := parTrace(ranks, 1, top, 900*Nanosecond)
		for _, shards := range []int{2, 3, 4, 8, ranks} {
			got := parTrace(ranks, shards, top, 900*Nanosecond)
			for r := range ref {
				if len(got[r]) != len(ref[r]) {
					t.Fatalf("%s shards=%d rank %d: %d events vs %d in reference",
						name, shards, r, len(got[r]), len(ref[r]))
				}
				for i := range ref[r] {
					if got[r][i] != ref[r][i] {
						t.Fatalf("%s shards=%d rank %d event %d: %q vs reference %q",
							name, shards, r, i, got[r][i], ref[r][i])
					}
				}
			}
		}
	}
}

// TestDomainWindows pins the windows a topology's domains allow: on a
// two-tier world (pods of 4, 3 hops apart) the lookahead is 3 × 900 ns,
// a send within the pod runs inside the window in (at, tie) order, a
// send across pods inside the window panics, and 1 and 4 shards run the
// same sequence of window ends.
func TestDomainWindows(t *testing.T) {
	top := NewTwoTier(4, 4)
	t.Run("same domain", func(t *testing.T) {
		drv := NewParEngine(8, 2, top, 900)
		defer drv.Shutdown()
		if drv.par.lookahead != 2700 || drv.par.nshards != 2 {
			t.Fatalf("lookahead %v over %d shards; want 2.7µs over 2", drv.par.lookahead, drv.par.nshards)
		}
		var order []string
		rec := func(name string) func() {
			return func() {
				order = append(order, fmt.Sprintf("%s@%d<%d", name, drv.RankEngine(1).Now(), drv.par.windowEnd))
			}
		}
		drv.AtRank(0, 10, func() {
			re := drv.RankEngine(0)
			re.AtRank(2, 900, rec("c")) // scheduled first: the lower tie at 900
			re.AtRank(1, 900, rec("d"))
			re.AtRank(3, 500, rec("b"))
			re.AtRank(1, 20, rec("a"))
		})
		drv.Run()
		if got := fmt.Sprint(order); got != "[a@20<2710 b@500<2710 c@900<2710 d@900<2710]" {
			t.Fatalf("in-domain sends ran as %s; want a, b, c, d inside the window ending 2710", got)
		}
	})
	t.Run("across domains", func(t *testing.T) {
		drv := NewParEngine(8, 2, top, 900)
		defer drv.Shutdown()
		drv.AtRank(0, 10, func() {
			defer func() {
				if recover() == nil {
					t.Error("a send across pods inside the window did not panic")
				}
			}()
			drv.RankEngine(0).AtRank(4, 2000, func() {})
		})
		drv.Run()
	})
	t.Run("window ends", func(t *testing.T) {
		ends := func(shards int) []VTime {
			drv := NewParEngine(8, shards, top, 900)
			defer drv.Shutdown()
			var ends []VTime
			for r := 0; r < 8; r++ {
				for i := 0; i < 4; i++ {
					drv.AtRank(r, VTime(1000*r+3100*i), func() {})
				}
			}
			for drv.par.advance() {
				ends = append(ends, drv.par.windowEnd)
			}
			return ends
		}
		one, four := ends(1), ends(4)
		if fmt.Sprint(one) != fmt.Sprint(four) {
			t.Fatalf("window ends at 1 shard %v, at 4 %v", one, four)
		}
		if len(one) == 0 {
			t.Fatal("no windows ran")
		}
	})
}

// TestShardedProcessedAggregates checks Processed/Pending on the driver
// façade sum across shard heaps.
func TestShardedProcessedAggregates(t *testing.T) {
	drv := NewParEngine(4, 2, Crossbar{}, 900)
	defer drv.Shutdown()
	for r := 0; r < 4; r++ {
		drv.AtRank(r, 10, func() {})
	}
	if p := drv.Pending(); p != 4 {
		t.Fatalf("Pending = %d before run", p)
	}
	drv.Run()
	if p := drv.Processed(); p != 4 {
		t.Fatalf("Processed = %d after run", p)
	}
	if p := drv.Pending(); p != 0 {
		t.Fatalf("Pending = %d after run", p)
	}
}

// TestLookaheadViolationPanics pins the conservative-window tripwire: a
// rank-context event scheduling onto another domain's rank (here two
// one-rank crossbar domains) at a time inside the current window is a
// model bug (a cross-rank delivery faster than the wire allows) and must
// panic rather than silently reorder.
func TestLookaheadViolationPanics(t *testing.T) {
	drv := NewParEngine(2, 2, Crossbar{}, 900*Nanosecond)
	defer drv.Shutdown()
	drv.AtRank(0, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("cross-rank schedule inside the window did not panic")
			}
		}()
		// 1ns cross-rank: far below the 900ns lookahead.
		drv.RankEngine(0).AfterRank(1, 1, func() {})
	})
	drv.Run()
}

// TestShardedBarrierDefersGlobalWork asserts AtBarrier from a rank
// context runs after the window completes: an event later in the same
// window must execute before the barrier task.
func TestShardedBarrierDefersGlobalWork(t *testing.T) {
	drv := NewParEngine(2, 2, Crossbar{}, 900*Nanosecond)
	defer drv.Shutdown()
	var order []string
	drv.AtRank(0, 10, func() {
		drv.RankEngine(0).AtBarrier(func() { order = append(order, "barrier") })
	})
	// Same window (10 and 500 both fall in [10, 910)), other rank.
	drv.AtRank(1, 500, func() { order = append(order, "in-window") })
	drv.Run()
	if len(order) != 2 || order[0] != "in-window" || order[1] != "barrier" {
		t.Fatalf("barrier ordering %v; want in-window before barrier", order)
	}
}

// TestShardedRunUntil checks the driver façade's RunUntil quantizes to
// window boundaries but still stops once the predicate holds.
func TestShardedRunUntil(t *testing.T) {
	drv := NewParEngine(4, 2, Crossbar{}, 900*Nanosecond)
	defer drv.Shutdown()
	fired := 0
	for i := 0; i < 32; i++ {
		r := i % 4
		drv.AtRank(r, VTime(i)*2*Microsecond+5, func() { fired++ })
	}
	if ok := drv.RunUntil(func() bool { return fired >= 10 }); !ok {
		t.Fatal("RunUntil exhausted the queue before the predicate held")
	}
	if fired < 10 {
		t.Fatalf("predicate reported satisfied at fired=%d", fired)
	}
	drv.Run()
	if fired != 32 {
		t.Fatalf("drain after RunUntil fired %d of 32", fired)
	}
}

// TestNewParEngineClamps pins constructor edge cases: shard count clamps
// to the domain count (ranks on a crossbar), whole domains go to each
// shard, and a non-positive lookahead is a programming error.
func TestNewParEngineClamps(t *testing.T) {
	drv := NewParEngine(3, 16, Crossbar{}, 900)
	if n := drv.par.nshards; n != 3 {
		t.Fatalf("shards clamped to %d; want 3", n)
	}
	drv.Shutdown()
	drv = NewParEngine(10, 2, NewTwoTier(4, 1), 900) // pods 0-3, 4-7, 8-9
	if got := fmt.Sprint(drv.par.shardTab); got != "[0 0 0 0 0 0 0 0 1 1]" {
		t.Fatalf("3 pods over 2 shards placed as %s; want the first two pods on shard 0", got)
	}
	drv.Shutdown()
	drv = NewParEngine(10, 8, NewTwoTier(4, 1), 900)
	if n := drv.par.nshards; n != 3 {
		t.Fatalf("8 shards over 3 pods clamped to %d; want 3", n)
	}
	drv.Shutdown()
	defer func() {
		if recover() == nil {
			t.Error("NewParEngine accepted lookahead 0")
		}
	}()
	NewParEngine(2, 2, Crossbar{}, 0)
}
