package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events ran out of order: %v", got)
		}
	}
}

func TestEngineAfterNesting(t *testing.T) {
	e := NewEngine()
	var fired []VTime
	e.At(10, func() {
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 1 || fired[0] != 15 {
		t.Fatalf("nested After fired at %v", fired)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for past scheduling")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative delay")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 1; i <= 10; i++ {
		e.At(VTime(i), func() { n++ })
	}
	ok := e.RunUntil(func() bool { return n >= 4 })
	if !ok || n != 4 {
		t.Fatalf("RunUntil stopped at n=%d ok=%v", n, ok)
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	if ok := e.RunUntil(func() bool { return n >= 100 }); ok {
		t.Fatal("RunUntil claimed success on unreachable predicate")
	}
	if n != 10 {
		t.Fatalf("queue not drained, n=%d", n)
	}
}

func TestEngineDeterministicUnderRandomInsertion(t *testing.T) {
	run := func(seed int64) []int {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var got []int
		for i := 0; i < 200; i++ {
			i := i
			e.At(VTime(rng.Intn(50)), func() { got = append(got, i) })
		}
		e.Run()
		return got
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
	// And timestamps must be non-decreasing.
	e := NewEngine()
	rng := rand.New(rand.NewSource(7))
	var times []VTime
	for i := 0; i < 100; i++ {
		e.At(VTime(rng.Intn(1000)), func() { times = append(times, e.Now()) })
	}
	e.Run()
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
		t.Fatal("event times not monotonic")
	}
}

func TestVTimeString(t *testing.T) {
	cases := map[VTime]string{
		5:                "5ns",
		1500:             "1.500µs",
		2 * Millisecond:  "2.000ms",
		3 * Second:       "3.000s",
		42 * Microsecond: "42.000µs",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(v), got, want)
		}
	}
	if m := (1500 * Nanosecond).Micros(); m != 1.5 {
		t.Errorf("Micros = %v", m)
	}
}

// nopSink swallows typed events.
type nopSink struct{}

func (nopSink) HandleMsg(uint8, *Message) {}

// TestPendingByRank pins the backlog tap the queue-depth watchdog uses:
// AtRank events — closure or typed — are attributed to their rank, driver
// work (At, rank -1) is not, and executed events leave the counts.
func TestPendingByRank(t *testing.T) {
	e := NewEngine()
	counts := make([]int, 3)
	e.AtRank(0, 10, func() {})
	e.AtRankMsg(1, 10, nopSink{}, 0, nil)
	e.AtRankMsg(1, 20, nopSink{}, 0, nil)
	e.AtRank(2, 30, func() {})
	e.At(5, func() {}) // driver event: unattributed
	e.PendingByRank(counts)
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("initial backlog %v, want [1 2 1]", counts)
	}
	for i := 0; i < 3; i++ { // t=5 (driver), then rank 0 and rank 1 at t=10
		e.fire()
	}
	e.PendingByRank(counts)
	if counts[0] != 0 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("backlog after three steps %v, want [0 1 1]", counts)
	}
	e.Run()
	e.PendingByRank(counts)
	for r, c := range counts {
		if c != 0 {
			t.Fatalf("rank %d still shows %d pending after drain", r, c)
		}
	}
}

// TestPendingByRankSharded covers the sharded scan: events spread over
// shard heaps (and staged barrier tasks) attribute the same way, read
// from driver context between windows.
func TestPendingByRankSharded(t *testing.T) {
	const ranks = 4
	la := 900 * Nanosecond
	drv := NewParEngine(ranks, 2, Crossbar{}, la)
	counts := make([]int, ranks)
	for r := 0; r < ranks; r++ {
		for i := 0; i <= r; i++ {
			if i%2 == 0 {
				drv.AtRankMsg(r, VTime(1000+100*i), nopSink{}, 0, nil)
			} else {
				drv.AtRank(r, VTime(1000+100*i), func() {})
			}
		}
	}
	drv.PendingByRank(counts)
	for r := 0; r < ranks; r++ {
		if counts[r] != r+1 {
			t.Fatalf("sharded backlog %v, want [1 2 3 4]", counts)
		}
	}
	drv.Run()
	drv.PendingByRank(counts)
	for r, c := range counts {
		if c != 0 {
			t.Fatalf("rank %d shows %d pending after drain", r, c)
		}
	}
}

// laneSink is one rank's typed-event sink for the lane-order test: the
// step's identity rides in the message.
type laneSink struct{ fire func(id uint64) }

func (s laneSink) HandleMsg(_ uint8, m *Message) { s.fire(m.OpID) }

// laneTrace runs one workload that mixes the typed and the closure lane
// at equal timestamps, on a classic engine (shards == 0) or a sharded
// one, and returns each rank's pop sequence. Event id n rides the typed
// lane when n is even and the closure lane when odd, so every equal-time
// group alternates lanes.
func laneTrace(ranks, shards int) [][]uint64 {
	const la = 900 * Nanosecond
	drv := NewEngine()
	if shards > 0 {
		drv = NewParEngine(ranks, shards, Crossbar{}, la)
		defer drv.Shutdown()
	}
	traces := make([][]uint64, ranks)
	sinks := make([]laneSink, ranks)
	var fire func(rank int, id uint64)
	at := func(e *Engine, rank int, t VTime, id uint64) {
		if id%2 == 0 {
			e.AtRankMsg(rank, t, sinks[rank], 0, &Message{OpID: id})
		} else {
			e.AtRank(rank, t, func() { fire(rank, id) })
		}
	}
	fire = func(rank int, id uint64) {
		traces[rank] = append(traces[rank], id)
		if id >= 1000 {
			return
		}
		e := drv.RankEngine(rank)
		// Two follow-ups on this rank at one shared instant, one per lane,
		// and one to the neighbour a wire latency away (through the
		// cross-shard inbox when the neighbour lives on another shard).
		at(e, rank, 500, 1000+2*id)
		at(e, rank, 500, 1000+2*id+1)
		at(e, (rank+1)%ranks, e.Now()+la+VTime(rank), 3000+id)
	}
	for r := range sinks {
		r := r
		sinks[r] = laneSink{fire: func(id uint64) { fire(r, id) }}
	}
	for r := 0; r < ranks; r++ {
		for i := 0; i < 6; i++ {
			at(drv, r, 100, uint64(10*r+i)) // all at t=100, lanes alternating
		}
	}
	drv.Run()
	return traces
}

// TestTypedAndClosureLanesShareOneOrder pins that the typed lane is only
// a cheaper way to carry an event: typed and closure events draw their
// ties from the same counters, so a workload interleaving both at equal
// timestamps pops in the same per-rank order on the classic engine, on
// shards=1 and on shards=4.
func TestTypedAndClosureLanesShareOneOrder(t *testing.T) {
	const ranks = 8
	ref := laneTrace(ranks, 0)
	for r := range ref {
		if len(ref[r]) != 6+12+6 {
			t.Fatalf("classic rank %d popped %d events, want 24: %v", r, len(ref[r]), ref[r])
		}
	}
	for _, shards := range []int{1, 4} {
		got := laneTrace(ranks, shards)
		for r := range ref {
			if fmt.Sprint(got[r]) != fmt.Sprint(ref[r]) {
				t.Fatalf("shards=%d rank %d popped %v, classic popped %v",
					shards, r, got[r], ref[r])
			}
		}
	}
}

// TestTypedLaneAllocatesNothing pins the point of the typed lane: in
// steady state scheduling and firing a message event costs no
// allocation (the slab slot is recycled through the free list).
func TestTypedLaneAllocatesNothing(t *testing.T) {
	e := NewEngine()
	m := &Message{}
	for i := 0; i < 128; i++ { // grow the heap and the slab to their working size
		e.AtRankMsg(0, e.Now()+VTime(i), nopSink{}, 0, m)
	}
	e.Run()
	if n := testing.AllocsPerRun(1000, func() {
		e.AtRankMsg(0, e.Now()+1, nopSink{}, 0, m)
		e.AtRankMsg(1, e.Now()+1, nopSink{}, 1, m)
		e.fire()
		e.fire()
	}); n != 0 {
		t.Fatalf("typed AtRankMsg+Step allocates %v per run, want 0", n)
	}
}
