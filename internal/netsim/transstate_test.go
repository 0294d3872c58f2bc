package netsim

import (
	"math/rand"
	"slices"
	"testing"

	"nmvgas/internal/gas"
)

// transBlocks are the blocks a TransState program touches: 0 and
// gas.MaxBlock (block 0 is a key like any other), neighbours, and
// enough of them that the index grows past its first eight cells and
// shrinks back.
var transBlocks = []gas.BlockID{0, 1, 2, 3, 4, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610,
	987, 1 << 16, 1 << 31, 0x9E3779B9, gas.MaxBlock - 2, gas.MaxBlock - 1, gas.MaxBlock, 7}

// transModel drives a TransState and a reference built from three plain
// maps and an LRU list through the same program and fails on the first
// difference. A program is a capacity byte (even: unbounded, odd: 4)
// then triples of bytes (op, block, arg):
//
//	0  InstallRoute(block, arg%8)
//	1  InstallReadRoute(block, arg%8)
//	2  DropReadRoute(block)
//	3  Table.Update(block, arg%8-1)
//	4  Table.Lookup(block)
//	5  peek(Table, block)
//	6  Table.Invalidate(block)
//	7  ClearResident(block)
//	8  Table.DropIndex(arg%6-1)
//	9  advance the trusted epoch
//	10 Reset
//	11 Resolve a message for block (a read if arg is odd)
//	12 Forward(block), Route(block), ReadRoute(block)
//
// After every step it compares every block's route, read route and
// cached entry, the LRU order, the counters, and the slab and index
// sizes: the index holds exactly the blocks that carry something.
type transModel struct {
	t     *testing.T
	st    TransState
	epoch uint64

	cap           int
	routes, reads map[gas.BlockID]int
	owner         map[gas.BlockID]int
	at            map[gas.BlockID]uint64 // install epoch of a cached entry
	lru           []gas.BlockID          // most recently used first

	hits, misses, evictions, updates uint64
}

func newTransModel(t *testing.T, capacity int) *transModel {
	m := &transModel{t: t, cap: capacity, st: NewTransState(capacity)}
	m.st.Table.TrustEpoch(&m.epoch)
	m.reset()
	return m
}

func (m *transModel) reset() {
	m.routes, m.reads = map[gas.BlockID]int{}, map[gas.BlockID]int{}
	m.owner, m.at, m.lru = map[gas.BlockID]int{}, map[gas.BlockID]uint64{}, nil
}

func (m *transModel) uncache(b gas.BlockID) {
	delete(m.owner, b)
	delete(m.at, b)
	m.lru = slices.DeleteFunc(m.lru, func(x gas.BlockID) bool { return x == b })
}

func (m *transModel) lookup(b gas.BlockID) (int, bool) {
	o, ok := m.owner[b]
	if ok && m.at[b] < m.epoch {
		m.uncache(b)
		ok = false
	}
	if !ok {
		m.misses++
		return 0, false
	}
	m.hits++
	m.uncache(b)
	m.owner[b], m.at[b], m.lru = o, m.epoch, append([]gas.BlockID{b}, m.lru...)
	return o, true
}

func (m *transModel) peek(b gas.BlockID) (int, bool) {
	o, ok := m.owner[b]
	if !ok || m.at[b] < m.epoch {
		return 0, false
	}
	return o, true
}

func (m *transModel) update(b gas.BlockID, o int) {
	m.updates++
	if _, ok := m.owner[b]; ok {
		m.uncache(b)
	} else if m.cap > 0 && len(m.lru) >= m.cap {
		m.uncache(m.lru[len(m.lru)-1])
		m.evictions++
	}
	m.owner[b], m.at[b], m.lru = o, m.epoch, append([]gas.BlockID{b}, m.lru...)
}

func (m *transModel) run(prog []byte) {
	st, tt := &m.st, m.st.Table
	for pc := 0; pc+2 < len(prog); pc += 3 {
		op, b, arg := prog[pc]%13, transBlocks[int(prog[pc+1])%len(transBlocks)], int(prog[pc+2])
		switch op {
		case 0:
			st.InstallRoute(b, arg%8)
			m.routes[b] = arg % 8
		case 1:
			st.InstallReadRoute(b, arg%8)
			m.reads[b] = arg % 8
		case 2:
			st.DropReadRoute(b)
			delete(m.reads, b)
		case 3:
			tt.Update(b, arg%8-1)
			m.update(b, arg%8-1)
		case 4:
			o, ok := tt.Lookup(b)
			m.same(pc, "Lookup", b, o, ok)(m.lookup(b))
		case 5:
			o, ok := peek(tt, b)
			m.same(pc, "Peek", b, o, ok)(m.peek(b))
		case 6:
			_, want := m.owner[b]
			if got := tt.Invalidate(b); got != want {
				m.t.Fatalf("pc %d: Invalidate(%d) = %v, want %v", pc, b, got, want)
			}
			m.uncache(b)
		case 7:
			st.ClearResident(b)
			delete(m.routes, b)
			delete(m.reads, b)
			m.uncache(b)
		case 8:
			i := arg%6 - 1
			got, ok := tt.DropIndex(i)
			if want := i >= 0 && i < len(m.lru); ok != want || want && got != m.lru[i] {
				m.t.Fatalf("pc %d: DropIndex(%d) = %d,%v against LRU %v", pc, i, got, ok, m.lru)
			}
			if ok {
				m.uncache(got)
			}
		case 9:
			m.epoch++
		case 10:
			st.Reset()
			m.reset()
		case 11:
			home := arg % 8
			msg := &Message{Block: b, Read: arg%2 == 1, Target: gas.New(home, b, 0)}
			st.Resolve(msg)
			want := home
			if r, ok := m.reads[b]; ok && msg.Read {
				want = r
			} else if o, ok := m.lookup(b); ok {
				want = o
			} else if r, ok := m.routes[b]; ok {
				want = r
			}
			if msg.Dst != want {
				m.t.Fatalf("pc %d: Resolve(block %d, read %v) sent to %d, want %d", pc, b, msg.Read, msg.Dst, want)
			}
		case 12:
			o, ok := st.Forward(b)
			wo, wok := m.routes[b]
			if !wok {
				wo, wok = m.peek(b)
			}
			m.same(pc, "Forward", b, o, ok)(wo, wok)
		}
		m.check(pc)
	}
}

// same returns a check that (o, ok) equals what the model returns.
func (m *transModel) same(pc int, what string, b gas.BlockID, o int, ok bool) func(int, bool) {
	return func(wo int, wok bool) {
		if o != wo || ok != wok {
			m.t.Fatalf("pc %d: %s(%d) = %d,%v, want %d,%v", pc, what, b, o, ok, wo, wok)
		}
	}
}

func (m *transModel) check(pc int) {
	st, tt := &m.st, m.st.Table
	carrying := 0
	for _, b := range transBlocks {
		o, ok := st.Route(b)
		wo, wok := m.routes[b]
		m.same(pc, "Route", b, o, ok)(wo, wok)
		o, ok = st.ReadRoute(b)
		wo, wok = m.reads[b]
		m.same(pc, "ReadRoute", b, o, ok)(wo, wok)
		o, ok = peek(tt, b)
		m.same(pc, "Peek", b, o, ok)(m.peek(b))
		_, r := m.routes[b]
		_, rr := m.reads[b]
		_, c := m.owner[b]
		if r || rr || c {
			carrying++
		}
	}
	var order []gas.BlockID
	for s := tt.ents[0].next; s != 0; s = tt.ents[s].next {
		order = append(order, tt.ents[s].block)
	}
	if !slices.Equal(order, m.lru) || tt.Len() != len(m.lru) {
		m.t.Fatalf("pc %d: LRU order %v (len %d), want %v", pc, order, tt.Len(), m.lru)
	}
	h, mi, ev, up := tt.Stats()
	if h != m.hits || mi != m.misses || ev != m.evictions || up != m.updates {
		m.t.Fatalf("pc %d: stats %d/%d/%d/%d, want %d/%d/%d/%d", pc, h, mi, ev, up, m.hits, m.misses, m.evictions, m.updates)
	}
	free := 0
	for s := tt.free; s != 0; s = tt.ents[s].next {
		free++
	}
	if tt.ix.n != carrying || len(tt.ents)-1-free != carrying {
		m.t.Fatalf("pc %d: %d blocks carry something, the index holds %d, the slab %d slots in use",
			pc, carrying, tt.ix.n, len(tt.ents)-1-free)
	}
}

// TestTransStateMatchesMaps runs random programs through the model at
// both capacities.
func TestTransStateMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		prog := make([]byte, 301)
		rng.Read(prog)
		newTransModel(t, int(prog[0])%2*4).run(prog[1:])
	}
}

// FuzzTransState feeds the model arbitrary programs.
func FuzzTransState(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 0, 2, 3, 22, 5, 3, 1, 1, 3, 2, 7, 3, 3, 7, 4, 0, 0, 9, 0, 0, 4, 1, 0, 11, 0, 3, 12, 2, 0, 8, 0, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		if len(prog) > 1+3*200 {
			prog = prog[:1+3*200]
		}
		newTransModel(t, int(prog[0])%2*4).run(prog[1:])
	})
}

// TestTransStateIndexStaysSmall: blocks that come and go leave nothing
// behind — after 10⁵ install/drop cycles over distinct blocks, and after
// 10⁴ routes installed at once are dropped again, the index is sized by
// what is live, not by what passed through.
func TestTransStateIndexStaysSmall(t *testing.T) {
	st := NewTransState(4)
	small := func(when string) {
		if n, cells := st.Table.ix.n, len(st.Table.ix.cells); n > 4 || cells > 16 {
			t.Fatalf("%s: %d live blocks fill %d index cells", when, n, cells)
		}
	}
	for b := gas.BlockID(1); b <= 100_000; b++ {
		st.InstallRoute(b, 1)
		st.InstallReadRoute(b+1, 2)
		st.Table.Update(b+2, 3)
		st.ClearResident(b)
		st.DropReadRoute(b + 1)
	}
	small("after the cycles")
	if slots := len(st.Table.ents); slots > 16 {
		t.Fatalf("the cycles left %d slab slots", slots)
	}
	for b := gas.BlockID(1); b <= 10_000; b++ {
		st.InstallRoute(b, 1)
	}
	for b := gas.BlockID(1); b <= 10_000; b++ {
		st.ClearResident(b)
	}
	small("after 10⁴ routes came and went")
}

// TestTransStateTranslationAllocatesNothing pins the probes on the
// message path: Resolve and Forward, hitting and missing, allocate
// nothing.
func TestTransStateTranslationAllocatesNothing(t *testing.T) {
	st := NewTransState(32)
	for b := gas.BlockID(0); b < 64; b++ {
		st.InstallRoute(b, 1)
		st.Table.Update(b, 2)
	}
	st.InstallReadRoute(7, 3)
	m := &Message{Target: gas.New(1, 7, 0), Read: true}
	var sink int
	if n := testing.AllocsPerRun(1000, func() {
		for b := gas.BlockID(0); b < 100; b++ {
			m.Block, m.Read = b, b%2 == 1
			st.Resolve(m)
			o, _ := st.Forward(b)
			sink += m.Dst + o
		}
	}); n != 0 {
		t.Fatalf("Resolve and Forward allocate %v per pass, want 0", n)
	}
	_ = sink
}
