package runtime

import (
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"nmvgas/internal/netsim"
)

// The reliability layer's state as it was before the sliding windows
// (commit 67468be), kept as the reference the windows are held to: a
// receive record that parks out-of-order arrivals in a set, and a send
// channel that keeps its unacked messages in a map of heap copies. The
// bodies are the parent's, line for line.

type refRx struct {
	cum   uint64
	above map[uint64]struct{}
}

func (rx *refRx) seen(seq uint64) bool {
	if seq <= rx.cum {
		return true
	}
	_, ok := rx.above[seq]
	return ok
}

func (rx *refRx) record(seq uint64) {
	rx.above[seq] = struct{}{}
	for {
		if _, ok := rx.above[rx.cum+1]; !ok {
			return
		}
		delete(rx.above, rx.cum+1)
		rx.cum++
	}
}

type refPending struct {
	m        *netsim.Message
	attempts int
}

type refTx struct {
	nextSeq uint64
	unacked map[uint64]*refPending
}

func (tx *refTx) track(m *netsim.Message) {
	tx.nextSeq++
	m.RelSeq = tx.nextSeq
	cp := *m
	tx.unacked[m.RelSeq] = &refPending{m: &cp, attempts: 1}
}

func (tx *refTx) ack(seq, cum uint64) {
	delete(tx.unacked, seq)
	for s := range tx.unacked {
		if s <= cum {
			delete(tx.unacked, s)
		}
	}
}

// walk is the timer's order: every unacked sequence number, ascending.
func (tx *refTx) walk() []uint64 {
	seqs := make([]uint64, 0, len(tx.unacked))
	for s := range tx.unacked {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// relWindowOracle drives one send ring and one receive window and their
// map-based references through the same program and fails on the first
// difference.
type relWindowOracle struct {
	t    testing.TB
	prog []byte
	tc   *relTxChan
	tx   *refTx
	rx   relRxState
	rrx  refRx
	top  uint64 // highest sequence number any arrival carried
}

func newRelWindowOracle(t testing.TB) *relWindowOracle {
	return &relWindowOracle{t: t, tc: &relTxChan{}, tx: &refTx{unacked: map[uint64]*refPending{}},
		rrx: refRx{above: map[uint64]struct{}{}}}
}

func (o *relWindowOracle) failf(format string, args ...any) {
	o.t.Helper()
	o.t.Fatalf(format+"; program %v", append(args, o.prog)...)
}

// near maps v to a sequence number v-3 away from at, so a program reaches
// below the window as well as into and past it.
func near(at uint64, v byte) uint64 {
	if at+uint64(v) < 3 {
		return 0
	}
	return at + uint64(v) - 3
}

func (o *relWindowOracle) track(n int) {
	for i := 0; i < n; i++ {
		o.tc.track(&netsim.Message{}, 0)
		o.tx.track(&netsim.Message{})
	}
}

// timerWalk visits the window as relTimer does — up from base, skipping
// free slots, counting an attempt — and gives up on every k-th message it
// meets (k > 0), the way MaxAttempts does mid-walk.
func (o *relWindowOracle) timerWalk(k int) {
	want := o.tx.walk()
	var got []uint64
	for s, end := o.tc.base, o.tc.nextSeq; o.tc.n > 0 && s <= end; s++ {
		p := o.tc.slot(s)
		if p.m == nil {
			continue
		}
		got = append(got, s)
		if k > 0 && len(got)%k == 0 {
			if !o.tc.clear(s) {
				o.failf("walk: clear(%d) of a live slot reported it not pending", s)
			}
			delete(o.tx.unacked, s)
			continue
		}
		p.attempts++
		o.tx.unacked[s].attempts++
	}
	if len(got) != len(want) {
		o.failf("walk visited %v, reference %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			o.failf("walk visited %v, reference %v", got, want)
		}
	}
}

// arrive is the exactly-once gate's use of a receive record: a sequence
// number is recorded unless already seen.
func (o *relWindowOracle) arrive(seq uint64) {
	if seq == 0 {
		return // sequence numbers start at 1
	}
	o.top = max(o.top, seq)
	got, want := o.rx.seen(seq), o.rrx.seen(seq)
	if got != want {
		o.failf("seen(%d) = %v before its arrival, reference %v", seq, got, want)
	}
	if !got {
		o.rx.record(seq)
		o.rrx.record(seq)
	}
}

func (o *relWindowOracle) sameSeen(seq uint64) {
	if got, want := o.rx.seen(seq), o.rrx.seen(seq); got != want {
		o.failf("seen(%d) = %v, reference %v (cum %d, win %#x, far %v)", seq, got, want, o.rx.cum, o.rx.win, o.rx.far)
	}
}

func (o *relWindowOracle) check() {
	tc, ref := o.tc, o.tx.unacked
	if tc.n != len(ref) {
		o.failf("ring holds n=%d, reference %d", tc.n, len(ref))
	}
	if tc.nextSeq != o.tx.nextSeq {
		o.failf("nextSeq %d, reference %d", tc.nextSeq, o.tx.nextSeq)
	}
	live := 0
	for i := range tc.ring {
		if tc.ring[i].m != nil {
			live++
		}
	}
	if live != tc.n || len(tc.ring)&(len(tc.ring)-1) != 0 {
		o.failf("ring of %d slots has %d live, n=%d", len(tc.ring), live, tc.n)
	}
	lo := ^uint64(0)
	for s, p := range ref {
		lo = min(lo, s)
		if s < tc.base || s > tc.nextSeq {
			o.failf("unacked %d outside the window [%d, %d]", s, tc.base, tc.nextSeq)
		}
		if q := tc.slot(s); q.m == nil || q.m.RelSeq != s || q.attempts != p.attempts {
			o.failf("slot of %d holds %+v, reference attempts %d", s, *q, p.attempts)
		}
	}
	if tc.n > 0 && (tc.base != lo || tc.nextSeq-tc.base >= uint64(len(tc.ring))) {
		o.failf("window [%d, %d] over %d slots, oldest unacked %d", tc.base, tc.nextSeq, len(tc.ring), lo)
	}

	if o.rx.cum != o.rrx.cum {
		o.failf("cum %d, reference %d", o.rx.cum, o.rrx.cum)
	}
	if got := bits.OnesCount64(o.rx.win) + len(o.rx.far); got != len(o.rrx.above) {
		o.failf("%d arrivals above the horizon (win %#x, far %v), reference %d", got, o.rx.win, o.rx.far, len(o.rrx.above))
	}
	for s := near(o.rx.cum, 0); s <= o.rx.cum+66; s++ {
		o.sameSeen(s)
	}
	for s := range o.rrx.above {
		o.sameSeen(s - 1)
		o.sameSeen(s)
		o.sameSeen(s + 1)
	}
}

// run interprets prog, two bytes per step: an op and its argument.
func (o *relWindowOracle) run(prog []byte) {
	for o.prog = prog; len(prog) >= 2; prog = prog[2:] {
		op, arg := prog[0]%8, prog[1]
		switch op {
		case 0:
			o.track(1)
		case 1: // a burst: 48 outstanding take the ring from 8 slots to 64
			o.track(int(arg)%48 + 1)
		case 2: // ack(seq, cum), either of them possibly outside the window
			seq, cum := near(o.tc.base, arg&15), near(o.tc.nextSeq, arg>>4)
			o.tc.ack(seq, cum)
			o.tx.ack(seq, cum)
		case 3: // abandon: clear reports whether the message was still pending
			seq := near(o.tc.base, arg&15)
			_, want := o.tx.unacked[seq]
			delete(o.tx.unacked, seq)
			if got := o.tc.clear(seq); got != want {
				o.failf("clear(%d) = %v, reference pending = %v", seq, got, want)
			}
		case 4:
			o.timerWalk(int(arg) % 4)
		case 5: // rebirth, seldom: release everything, restart at sequence 1
			if arg%8 != 0 {
				o.track(1)
				break
			}
			o.tc.ack(0, o.tc.nextSeq)
			if o.tc.n != 0 {
				o.failf("rebirth left %d messages in the ring", o.tc.n)
			}
			o.tc, o.tx = &relTxChan{}, &refTx{unacked: map[uint64]*refPending{}}
		case 6: // arrivals ahead of the horizon
			switch {
			case arg < 96: // the next one, or a small gap
				o.arrive(o.rx.cum + 1 + uint64(arg%8))
			case arg < 128: // an in-order run, long enough to reach far arrivals
				for n := int(arg-96)*4 + 1; n > 0; n-- {
					o.arrive(o.rx.cum + 1)
				}
			case arg < 224: // anywhere inside the window
				o.arrive(o.rx.cum + 1 + uint64(arg%64))
			default: // 64 or more ahead: the far set
				o.arrive(o.rx.cum + 65 + uint64(arg-224)*3)
			}
		case 7: // an arrival around the horizon: mostly a duplicate
			o.arrive(near(o.rx.cum, arg%8))
		}
		o.check()
	}
	for s := uint64(0); s <= o.top+2; s++ {
		o.sameSeen(s)
	}
	o.tc.ack(0, o.tc.nextSeq) // hand the pristine copies back
}

// TestRelWindowOracle is the windows' equivalence property: over random
// programs of track / ack / abandon / timer walk / rebirth on the send
// ring and arrivals on the receive window — gaps of 64 and more, bursts
// that grow the ring twice over, acks naming sequence numbers below base
// and above nextSeq — ring and window agree with the map-based reference
// on the live set, the ascending walk, cum, and seen for every sequence.
func TestRelWindowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 5000; i++ {
		prog := make([]byte, 2*(1+rng.Intn(96)))
		rng.Read(prog)
		newRelWindowOracle(t).run(prog)
	}
}

// TestRelWindowGrowsAcrossTwoResizes pins the ring's growth rule on the
// case the issue warns about: live slots are re-placed under the new
// mask, and base only jumps when the window is empty.
func TestRelWindowGrowsAcrossTwoResizes(t *testing.T) {
	o := newRelWindowOracle(t)
	o.track(5)
	o.tc.ack(2, 1) // 1 and 2 go, base moves to 3
	o.tx.ack(2, 1)
	o.check()
	o.track(27) // 8 → 16 → 32 slots for the 30 live in [3, 32]
	o.check()
	if len(o.tc.ring) != 32 || o.tc.base != 3 {
		t.Fatalf("ring %d slots, base %d; want 32 and 3", len(o.tc.ring), o.tc.base)
	}
	o.timerWalk(0)
	o.tc.ack(0, o.tc.nextSeq)
	o.tx.ack(0, o.tx.nextSeq)
	o.check()
	o.track(1) // an empty window restarts at the newcomer
	o.check()
	if o.tc.base != o.tc.nextSeq {
		t.Fatalf("empty window did not restart: base %d, nextSeq %d", o.tc.base, o.tc.nextSeq)
	}
	o.tc.ack(0, o.tc.nextSeq)
}

// FuzzRelWindow feeds TestRelWindowOracle's interpreter. The committed
// seeds cover far arrivals and their drain, ring growth under a pinned
// base, out-of-window acks and a rebirth.
func FuzzRelWindow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 2, 0x33, 4, 0, 6, 1, 7, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		newRelWindowOracle(t).run(prog)
	})
}

// BenchmarkReliableWindow is the send window's cost per message (one
// track and the ack that clears the oldest) at a fixed number
// outstanding: the ring against the map body it replaced.
func BenchmarkReliableWindow(b *testing.B) {
	m := &netsim.Message{Kind: kParcel, Wire: 64}
	for _, k := range []int{1, 16, 256} {
		b.Run("ring/"+strconv.Itoa(k), func(b *testing.B) {
			tc := &relTxChan{}
			for i := 0; i < k; i++ {
				tc.track(m, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.track(m, 0)
				oldest := tc.nextSeq - uint64(k)
				tc.ack(oldest, oldest)
			}
		})
		b.Run("map/"+strconv.Itoa(k), func(b *testing.B) {
			tx := &refTx{unacked: map[uint64]*refPending{}}
			for i := 0; i < k; i++ {
				tx.track(m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx.track(m)
				oldest := tx.nextSeq - uint64(k)
				tx.ack(oldest, oldest)
			}
		})
	}
}
