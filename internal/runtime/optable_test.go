package runtime

import (
	"math/bits"
	"math/rand"
	"testing"
)

// opTableModel drives an opTable and a plain map through the same
// program and fails on the first difference. A program is pairs of bytes
// (op, arg):
//
//	0  put a key from a family sharing its low bits: rank arg>>4, sequence arg&15
//	1  put a new key whose home is slot arg (mod the table's size)
//	2  take the first key at or after slot arg×size/256
//	3  take a missing key whose home is slot arg
//	4  grow: put arg%16+1 fresh keys, as newOpID mints them
//
// After every step it checks the table's shape: the count matches the
// map, the table is at most half full, every key is reachable from its
// home by a probe that crosses no empty slot, and every slot holds what
// the map holds.
type opTableModel struct {
	t    *testing.T
	tab  opTable
	want map[uint64]*waiter
	seq  uint64
}

func newOpTableModel(t *testing.T) *opTableModel {
	return &opTableModel{t: t, want: map[uint64]*waiter{}}
}

// homedAt returns a key, absent from the map, whose home is slot h of the
// table (of the table the first put makes, when there is none yet).
func (m *opTableModel) homedAt(h byte) uint64 {
	size := max(8, len(m.tab.slots))
	probe := opTable{shift: uint(65 - bits.Len(uint(size)))}
	for c := uint64(1); ; c++ {
		id := 0x20<<48 | c
		if _, in := m.want[id]; !in && probe.home(id) == int(h)&(size-1) {
			return id
		}
	}
}

func (m *opTableModel) put(id uint64) {
	wt := &waiter{}
	m.tab.put(id, opState{wait: wt})
	m.want[id] = wt
}

func (m *opTableModel) take(id uint64) {
	st, ok := m.tab.take(id)
	wt, in := m.want[id]
	if ok != in || st.wait != wt {
		m.t.Fatalf("take(%#x) = (%p, %v), want (%p, %v)", id, st.wait, ok, wt, in)
	}
	delete(m.want, id)
}

func (m *opTableModel) run(prog []byte) {
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc]%5, prog[pc+1]
		switch op {
		case 0:
			m.put(uint64(arg>>4+1)<<48 | uint64(arg&15+1))
		case 1:
			m.put(m.homedAt(arg))
		case 2:
			if n := len(m.tab.slots); m.tab.n > 0 {
				i := int(arg) * n >> 8
				for m.tab.slots[i].id == 0 {
					i = (i + 1) & (n - 1)
				}
				m.take(m.tab.slots[i].id)
			}
		case 3:
			m.take(m.homedAt(arg))
		case 4:
			for k := 0; k <= int(arg%16); k++ {
				m.seq++
				m.put(0x11<<48 | m.seq)
			}
		}
		m.check(pc)
	}
}

func (m *opTableModel) check(pc int) {
	tab, n := &m.tab, len(m.tab.slots)
	if tab.n != len(m.want) || 2*tab.n > n {
		m.t.Fatalf("pc %d: %d keys in %d slots, the map holds %d", pc, tab.n, n, len(m.want))
	}
	used := 0
	for i, s := range tab.slots {
		if s.id == 0 {
			continue
		}
		used++
		if wt, in := m.want[s.id]; !in || s.st.wait != wt {
			m.t.Fatalf("pc %d: slot %d holds %#x (%p), the map (%p, %v)", pc, i, s.id, s.st.wait, wt, in)
		}
		for j := tab.home(s.id); j != i; j = (j + 1) & (n - 1) {
			if tab.slots[j].id == 0 {
				m.t.Fatalf("pc %d: %#x at slot %d is cut off from its home %d by empty slot %d",
					pc, s.id, i, tab.home(s.id), j)
			}
		}
	}
	if used != tab.n {
		m.t.Fatalf("pc %d: %d slots in use, count %d", pc, used, tab.n)
	}
}

// TestOpTableMatchesMap runs random programs through the model.
func TestOpTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		prog := make([]byte, 200)
		rng.Read(prog)
		newOpTableModel(t).run(prog)
	}
}

// FuzzOpTable feeds the model arbitrary programs. The committed seeds
// cover keys that share their low bits, a cluster that wraps past the
// table's end, a take in the middle of a cluster, and growth.
func FuzzOpTable(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		newOpTableModel(t).run(prog)
	})
}
