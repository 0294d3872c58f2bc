package gas

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestStoreCreateGetRemove(t *testing.T) {
	s := NewStore()
	b, err := s.Create(7, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != 7 || len(b.Data) != 64 || b.Kind != KindData {
		t.Fatalf("bad block %+v", b)
	}
	got, ok := s.Get(7)
	if !ok || got != b {
		t.Fatal("Get after Create failed")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	rb, ok := s.Remove(7)
	if !ok || rb != b {
		t.Fatal("Remove failed")
	}
	if _, ok := s.Get(7); ok {
		t.Fatal("block still resident after Remove")
	}
	if _, ok := s.Remove(7); ok {
		t.Fatal("double Remove succeeded")
	}
}

func TestStoreDoubleInsertFails(t *testing.T) {
	s := NewStore()
	if _, err := s.Create(1, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(1, 8); err == nil {
		t.Fatal("double create must fail")
	}
}

func TestStoreCreateBadSize(t *testing.T) {
	s := NewStore()
	if _, err := s.Create(1, 0); err == nil {
		t.Fatal("zero-size block accepted")
	}
	if _, err := s.Create(2, MaxBlockSize+1); err == nil {
		t.Fatal("oversized block accepted")
	}
	if _, err := s.Create(3, MaxBlockSize); err != nil {
		t.Fatalf("max-size block rejected: %v", err)
	}
}

func TestStoreReadWrite(t *testing.T) {
	s := NewStore()
	if _, err := s.Create(9, 32); err != nil {
		t.Fatal(err)
	}
	src := []byte{1, 2, 3, 4}
	if err := s.WriteAt(9, 10, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 4)
	if err := s.ReadAt(9, 10, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatalf("read back %v", dst)
	}
}

func TestStoreReadWriteBounds(t *testing.T) {
	s := NewStore()
	if _, err := s.Create(9, 32); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(9, 30, []byte{1, 2, 3}); err == nil {
		t.Fatal("out-of-bounds write accepted")
	}
	if err := s.ReadAt(9, 31, make([]byte, 2)); err == nil {
		t.Fatal("out-of-bounds read accepted")
	}
	if err := s.ReadAt(8, 0, make([]byte, 1)); err == nil {
		t.Fatal("read of absent block accepted")
	}
	if err := s.WriteAt(8, 0, []byte{1}); err == nil {
		t.Fatal("write to absent block accepted")
	}
}

func TestStoreRange(t *testing.T) {
	s := NewStore()
	for i := BlockID(1); i <= 5; i++ {
		if _, err := s.Create(i, 8); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	s.Range(func(*Block) bool { seen++; return true })
	if seen != 5 {
		t.Fatalf("Range visited %d blocks", seen)
	}
	seen = 0
	s.Range(func(*Block) bool { seen++; return false })
	if seen != 1 {
		t.Fatalf("early-stop Range visited %d blocks", seen)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	// A store has one writer at a time: on the goroutine engine that is
	// whichever goroutine holds its rank's token, handed between the
	// actor, inliners and claimants. token stands for it here, so under
	// -race this reports any state the store shares beyond its owner.
	s := NewStore()
	var token sync.Mutex
	const n = 64
	for i := BlockID(1); i <= n; i++ {
		if _, err := s.Create(i, 16); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := BlockID(1); i <= n; i++ {
				token.Lock()
				werr := s.WriteAt(i, 0, []byte{byte(w), 1, 2, 3, 4, 5, 6, 7})
				rerr := s.ReadAt(i, 0, buf)
				token.Unlock()
				if werr != nil || rerr != nil {
					t.Error(werr, rerr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestStoreWriteReadRoundTripProperty(t *testing.T) {
	s := NewStore()
	if _, err := s.Create(1, 1024); err != nil {
		t.Fatal(err)
	}
	f := func(offRaw uint16, data []byte) bool {
		if len(data) > 256 {
			data = data[:256]
		}
		off := uint32(offRaw) % (1024 - 256)
		if err := s.WriteAt(1, off, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := s.ReadAt(1, off, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// storeModel runs a program of store operations against a plain map and
// checks every answer. After each step it also checks the read index's
// own rules: every resident block is reachable, a key once written to an
// index never changes, and an index once replaced is never written again.
type storeModel struct {
	t        testing.TB
	s        *Store
	model    map[BlockID]*Block
	ids      []BlockID // every id ever inserted, for picking operands
	next     BlockID   // the last fresh id issued
	ix       *index    // the index after the previous step
	keys     []uint32  // its keys then
	retired  []retiredIndex
	rebuilds int
}

type retiredIndex struct {
	ix   *index
	keys []uint32
	blks []*Block
}

func newStoreModel(t testing.TB) *storeModel {
	m := &storeModel{t: t, s: NewStore(), model: map[BlockID]*Block{}}
	m.ix = m.s.idx
	m.keys = keysOf(m.ix, nil)
	return m
}

func keysOf(ix *index, dst []uint32) []uint32 {
	for i := range ix.slots {
		dst = append(dst, ix.slots[i].key)
	}
	return dst
}

// pick maps an operand byte to an id: mostly one already used, sometimes
// block 0 or one never issued.
func (m *storeModel) pick(arg byte) BlockID {
	switch {
	case arg == 255:
		return 0
	case arg >= 240 || len(m.ids) == 0:
		return m.next + 1 + BlockID(arg&7)
	}
	return m.ids[int(arg)%len(m.ids)]
}

func (m *storeModel) fresh(arg byte) *Block {
	m.next += 1 + BlockID(arg&3)
	m.ids = append(m.ids, m.next)
	return &Block{ID: m.next}
}

func (m *storeModel) insert(b *Block) {
	err := m.s.Insert(b)
	if _, resident := m.model[b.ID]; resident || b.ID == 0 {
		if err == nil {
			m.t.Fatalf("Insert(%d) accepted a resident or null block", b.ID)
		}
		return
	}
	if err != nil {
		m.t.Fatalf("Insert(%d): %v", b.ID, err)
	}
	m.model[b.ID] = b
}

func (m *storeModel) remove(id BlockID) {
	got, ok := m.s.Remove(id)
	want, wok := m.model[id]
	if got != want || ok != wok {
		m.t.Fatalf("Remove(%d) = %p, %v; want %p, %v", id, got, ok, want, wok)
	}
	delete(m.model, id)
}

// step runs one operation: op and arg are a program's next two bytes.
func (m *storeModel) step(op, arg byte) {
	s := m.s
	switch op % 8 {
	case 0, 1: // allocate
		m.insert(m.fresh(arg))
	case 2: // free or migrate away
		m.remove(m.pick(arg))
	case 3: // re-insert: a migrate-back, a replica swapped for its master
		m.insert(&Block{ID: m.pick(arg), Replica: arg&1 == 1})
	case 4:
		id := m.pick(arg)
		got, ok := s.Get(id)
		if want, wok := m.model[id]; got != want || ok != wok {
			m.t.Fatalf("Get(%d) = %p, %v; want %p, %v", id, got, ok, want, wok)
		}
	case 5:
		if s.Len() != len(m.model) {
			m.t.Fatalf("Len = %d; want %d", s.Len(), len(m.model))
		}
	case 6:
		n := 0
		s.Range(func(b *Block) bool {
			if m.model[b.ID] != b {
				m.t.Fatalf("Range visited %d = %p; model has %p", b.ID, b, m.model[b.ID])
			}
			n++
			return true
		})
		if n != len(m.model) {
			m.t.Fatalf("Range visited %d blocks; want %d", n, len(m.model))
		}
	case 7: // an LCO's whole life: created, fired, freed
		b := m.fresh(arg)
		m.insert(b)
		m.remove(b.ID)
	}
	m.check()
}

func (m *storeModel) check() {
	for _, id := range append(m.ids, 0, m.next+1) {
		got, ok := m.s.Get(id)
		if want, wok := m.model[id]; got != want || ok != wok {
			m.t.Fatalf("Get(%d) = %p, %v; want %p, %v", id, got, ok, want, wok)
		}
	}
	cur := m.s.idx
	if cur != m.ix {
		r := retiredIndex{ix: m.ix, keys: m.keys}
		for i := range m.ix.slots {
			r.blks = append(r.blks, m.ix.slots[i].blk)
		}
		m.retired = append(m.retired, r)
		m.rebuilds++
		m.ix, m.keys = cur, nil
	}
	for i, k := range m.keys {
		if k != 0 && cur.slots[i].key != k {
			m.t.Fatalf("slot %d of the live index changed key %d -> %d", i, k, cur.slots[i].key)
		}
	}
	m.keys = keysOf(cur, m.keys[:0])
	for _, r := range m.retired {
		for i := range r.ix.slots {
			if r.ix.slots[i].key != r.keys[i] || r.ix.slots[i].blk != r.blks[i] {
				m.t.Fatalf("slot %d of a replaced index was written", i)
			}
		}
	}
}

func (m *storeModel) run(prog []byte) {
	for i := 0; i+1 < len(prog); i += 2 {
		m.step(prog[i], prog[i+1])
	}
}

// TestStoreMatchesModel runs seeded random programs of Create, Insert,
// Remove, re-insert, Get, Len and Range against a plain map; each program
// grows the store past several index rebuilds and clears many slots.
func TestStoreMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2400)
		rng.Read(prog)
		m := newStoreModel(t)
		m.run(prog)
		if m.rebuilds < 4 {
			t.Fatalf("seed %d: %d index rebuilds; the program must cross several", seed, m.rebuilds)
		}
		// Free everything still resident, then start over on a store
		// whose index is full of cleared keys.
		for id := range m.model {
			m.remove(id)
			m.check()
		}
		m.run(prog[:600])
	}
}

// FuzzStoreOps runs arbitrary programs through the same model.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 4, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0})
	f.Add(bytes.Repeat([]byte{7, 0}, 64))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		newStoreModel(t).run(prog)
	})
}

// TestStoreGetAllocatesNothing pins the residency check at zero
// allocations, hit and miss.
func TestStoreGetAllocatesNothing(t *testing.T) {
	s := NewStore()
	for id := BlockID(1); id <= 100; id++ {
		if _, err := s.Create(id, 8); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []BlockID{42, 4242} {
		if n := testing.AllocsPerRun(1000, func() { s.Get(id) }); n != 0 {
			t.Fatalf("Get(%d) allocates %v per call", id, n)
		}
	}
}
