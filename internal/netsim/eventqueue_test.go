package netsim

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// holdDelays is the hold model's delay table, shaped like the DES's own
// traffic: mostly wire and NIC latencies up to a few µs, one event in 16
// at the popping instant itself, one in 64 a retransmit-style timer a
// millisecond out.
func holdDelays() *[1024]VTime {
	var d [1024]VTime
	rng := rand.New(rand.NewSource(1))
	for i := range d {
		switch {
		case i%64 == 63:
			d[i] = Millisecond + VTime(rng.Intn(1000))
		case i%16 == 15:
			d[i] = 0
		default:
			d[i] = 1 + VTime(rng.Intn(4096))
		}
	}
	return &d
}

// chaosDelays is a delay table shaped like des_chaos: hops and host
// delays up to 16 µs, and one event in 20 a retransmit timer 200 µs out.
func chaosDelays() *[1024]VTime {
	var d [1024]VTime
	rng := rand.New(rand.NewSource(2))
	for i := range d {
		d[i] = 1 + VTime(rng.Intn(16384))
		if i%20 == 19 {
			d[i] = 200 * Microsecond
		}
	}
	return &d
}

// hold runs the classic hold model: pop the earliest event and push a
// new one a table delay later, so the queue stays at its pending count.
func hold(q *eventQueue, d *[1024]VTime, tie *uint64, steps int) {
	for i := 0; i < steps; i++ {
		ev := q.pop()
		*tie++
		ev.at, ev.tie = ev.at+d[*tie&1023], *tie
		q.push(ev)
	}
}

func holdQueue(pending int, d *[1024]VTime, tie *uint64) *eventQueue {
	q := &eventQueue{}
	for i := 0; i < pending; i++ {
		*tie++
		q.push(event{at: d[*tie&1023], tie: *tie})
	}
	return q
}

// BenchmarkEventQueueHold is the queue's cost per event (one pop and one
// push) at a fixed number of pending events.
func BenchmarkEventQueueHold(b *testing.B) {
	run := func(name string, pending int, d *[1024]VTime) {
		b.Run(name, func(b *testing.B) {
			var tie uint64
			q := holdQueue(pending, d, &tie)
			hold(q, d, &tie, 4*pending) // reach the steady spread
			b.ResetTimer()
			hold(q, d, &tie, b.N)
		})
	}
	for _, pending := range []int{2, 8, 64, 500, 4096} {
		run(strconv.Itoa(pending), pending, holdDelays())
	}
	run("chaos-4096", 4096, chaosDelays())
}

// TestEventQueueHoldAllocatesNothing pins the steady state: once the slab
// and the front heap have reached their working size, holding 500 pending
// events allocates nothing.
func TestEventQueueHoldAllocatesNothing(t *testing.T) {
	d := holdDelays()
	var tie uint64
	q := holdQueue(500, d, &tie)
	hold(q, d, &tie, 100_000)
	if n := testing.AllocsPerRun(100, func() { hold(q, d, &tie, 1000) }); n != 0 {
		t.Fatalf("hold at 500 pending allocates %v per 1000 events, want 0", n)
	}
}

// retained is the queue's storage in event slots, used or not.
func (q *eventQueue) retained() int { return cap(q.slab) + cap(q.front) }

// TestEventQueueShrinksOnDrain pins the queue-level retention rule: a
// drained burst must not pin its high-water storage. Push a burst well
// past minQueueCap, drain to a sixteenth, and assert that slab plus front
// were reallocated smaller and sit within 8× the live size plus the floor.
func TestEventQueueShrinksOnDrain(t *testing.T) {
	for name, at := range map[string]func(i int) VTime{
		"spread":      func(i int) VTime { return VTime(i) },
		"one instant": func(i int) VTime { return 7 + max(0, VTime(i-900)) },
	} {
		t.Run(name, func(t *testing.T) {
			var q eventQueue
			const burst = 1024
			for i := 0; i < burst; i++ {
				q.push(event{at: at(i), tie: uint64(i)})
			}
			peak := q.retained()
			for q.n > burst/16 {
				q.pop()
				peak = max(peak, q.retained())
			}
			if peak < burst {
				t.Fatalf("retained %d slots at the peak of a %d-event burst", peak, burst)
			}
			q.pop() // retention is judged as an instant settles
			if got, bound := q.retained(), 8*q.n+minQueueCap; got >= peak || got > bound {
				t.Fatalf("queue did not shrink: %d slots retained for %d live (peak %d, bound %d)", got, q.n, peak, bound)
			}
			// The floor holds: draining to empty never reallocates below it.
			for q.n > 0 {
				q.pop()
			}
			if got := q.retained(); got < minQueueCap/4 {
				t.Fatalf("shrank below the floor: %d slots", got)
			}
			// Order survived the reallocations: refill and pop in order.
			base := q.last
			for i := burst; i > 0; i-- {
				q.push(event{at: base + VTime(i), tie: uint64(i)})
			}
			for prev := base; q.n > 0; {
				ev := q.pop()
				if ev.at < prev {
					t.Fatalf("order broken after shrink: %d after %d", ev.at, prev)
				}
				prev = ev.at
			}
		})
	}
}

// queueOracle drives an eventQueue and a sorted reference through the
// same monotone schedule and fails on the first difference.
type queueOracle struct {
	t    testing.TB
	prog []byte
	q    eventQueue
	ref  []event // descending (at, tie): the least event is last
	now  VTime
	seq  uint64
	// burst is how many more events burst steps may push: a fuzz input
	// made of nothing but bursts has to stay quick.
	burst int
}

func (o *queueOracle) failf(format string, args ...any) {
	o.t.Fatalf(format+"; clock %d, program %v", append(args, o.now, o.prog)...)
}

// push schedules an event delay after the last popped time. The tie
// carries a rank above a shared counter, as ParEngine.nextTie does, so
// ties are unique but not monotone in push order. The reference takes
// the event at the end: place or a sort puts it in order.
func (o *queueOracle) push(delay VTime, rank int) {
	o.seq++
	ev := event{at: o.now + delay, tie: uint64(rank)<<48 | o.seq, who: ^o.seq}
	o.q.push(ev)
	o.ref = append(o.ref, ev)
}

// evLess orders events by (at, tie); tie is unique, so the order is a
// strict total order and pop sequence is independent of queue shape.
func evLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.tie < b.tie
}

// place moves the reference's last event to its sorted position.
func (o *queueOracle) place() {
	n := len(o.ref) - 1
	ev := o.ref[n]
	i := sort.Search(n, func(i int) bool { return evLess(o.ref[i], ev) })
	copy(o.ref[i+1:], o.ref[i:n])
	o.ref[i] = ev
}

// sameEvent compares everything of an event but its closure.
func sameEvent(a, b event) bool { return a.at == b.at && a.tie == b.tie && a.who == b.who }

// check compares size and, twice, the time of the head: peekAt must
// neither miss a push nor change what a later peekAt or pop sees, and
// read never on an empty queue.
func (o *queueOracle) check() {
	if o.q.n != len(o.ref) {
		o.failf("queue holds %d events, reference %d", o.q.n, len(o.ref))
	}
	head := never
	if len(o.ref) > 0 {
		head = o.ref[len(o.ref)-1].at
	}
	for i := 0; i < 2; i++ {
		if got := o.q.peekAt(); got != head {
			o.failf("peekAt %d, reference %d", got, head)
		}
	}
}

func (o *queueOracle) pop() {
	if len(o.ref) == 0 {
		return
	}
	got, want := o.q.pop(), o.ref[len(o.ref)-1]
	o.ref = o.ref[:len(o.ref)-1]
	if !sameEvent(got, want) {
		o.failf("pop (%d, %#x), reference (%d, %#x)", got.at, got.tie, want.at, want.tie)
	}
	o.now = got.at
}

// edge brings the clock to the last ns of its page, pushing an event
// there and popping everything up to it, then pushes delays of 4 095,
// 4 096 and 4 097 ns: the last two slots of the next page and the first
// of the page after it.
func (o *queueOracle) edge(rank int) {
	end := o.now | (pageLen - 1)
	o.push(end-o.now, rank)
	o.place()
	o.check()
	for len(o.ref) > 0 && o.ref[len(o.ref)-1].at <= end {
		o.pop()
		o.check()
	}
	for _, d := range []VTime{pageLen - 1, pageLen, pageLen + 1} {
		o.push(d, rank)
		o.place()
		o.check()
	}
}

// run interprets prog, two bytes per step: an op with a rank for the tie,
// and an argument. Whatever is pending at the end is drained in order.
func (o *queueOracle) run(prog []byte) {
	for o.prog = prog; len(prog) >= 2; prog = prog[2:] {
		op, rank, arg := prog[0]%8, int(prog[0]>>3), VTime(prog[1])
		switch op {
		case 0: // the popping instant itself, or a few ns on
			o.push(arg%4, rank)
		case 1:
			o.push(arg, rank)
		case 2: // µs-scale hops
			o.push(arg*arg, rank)
		case 3: // a timer 2^40 ns out, or one step in four a page edge
			if arg%4 == 3 {
				o.edge(rank)
				continue
			}
			o.push(1<<40+arg, rank)
		case 4: // an equal-time burst, ranks cycling so ties arrive out of order
			n := min(int(arg)*16+1, o.burst)
			o.burst -= n
			for i := 0; i < n; i++ {
				o.push(arg%3, rank+7*i%32)
			}
			slices.SortFunc(o.ref, func(a, b event) int { return cmp.Or(cmp.Compare(b.at, a.at), cmp.Compare(b.tie, a.tie)) })
		default:
			o.pop()
		}
		if op < 4 {
			o.place()
		}
		if op == 7 { // pop with no peekAt in between, as Engine.Run does
			o.pop()
		}
		o.check()
	}
	seen := 0
	o.q.each(func(event) { seen++ })
	if seen != len(o.ref) {
		o.failf("each visited %d events, reference holds %d", seen, len(o.ref))
	}
	for len(o.ref) > 0 {
		o.pop()
	}
	o.check()
}

// TestEventQueueOrderOracle is the queue's order property: over random
// monotone interleavings of push, pop and peekAt — same-instant events,
// bursts of thousands, out-of-order ties, timers 2^40 ns out, delays
// across a page edge — the queue pops exactly the reference's ascending
// (at, tie) sequence.
func TestEventQueueOrderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 20_000; i++ {
		prog := make([]byte, 2*(1+rng.Intn(64)))
		rng.Read(prog)
		for j := 0; j < len(prog); j += 2 {
			if prog[j]%8 == 4 && rng.Intn(512) != 0 { // keep most bursts small
				prog[j+1] %= 4
			}
		}
		(&queueOracle{t: t, burst: 8192}).run(prog)
	}
}

// FuzzEventQueueOrder hands the same interpreter to the fuzzer.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 9, 1, 9, 0, 0, 5, 0, 6, 0, 7, 0})
	f.Add([]byte{3, 0, 12, 255, 1, 1, 5, 0, 2, 200, 6, 0, 3, 7, 7, 0})
	f.Add([]byte{4, 200, 5, 0, 44, 3, 0, 0, 6, 0, 15, 0, 10, 255, 7, 0})
	f.Add([]byte{1, 200, 3, 3, 2, 60, 11, 7, 5, 0, 3, 255, 7, 0, 6, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		(&queueOracle{t: t, burst: 1024}).run(prog)
	})
}
