package gas

import "fmt"

// BlockKind distinguishes plain data blocks from LCO control blocks. LCOs
// live in the global address space too (a parcel can target an LCO's GVA),
// but their payload is interpreted by the LCO layer rather than read as
// raw bytes.
type BlockKind uint8

const (
	KindData BlockKind = iota
	KindLCO
)

// Block is one unit of globally addressable memory resident on a locality.
type Block struct {
	ID    BlockID
	Kind  BlockKind
	BSize uint32
	Data  []byte
	// Home is the rank the block's GVA names as its home (where the
	// ownership directory entry lives). Residency code never consults it;
	// it exists so elastic-membership code can rebuild a block's GVA from
	// its resident image when draining or recovering a locality.
	Home int
	// Pinned blocks (LCOs, per-locality infrastructure) refuse to
	// migrate.
	Pinned bool
	// Replica marks a coherent read copy living on a non-owner
	// locality. Replicas serve reads only (the coherence protocol keeps
	// them fresh or marks them stale); they are invisible to ownership
	// routing, and writes/parcels always resolve to the master.
	Replica bool
	// Ctl holds the LCO object for KindLCO blocks; the concrete type is
	// owned by the lco package. Keeping it as any avoids an import cycle.
	Ctl any
}

// NewDataBlock returns a zeroed data block homed on home, not yet
// resident anywhere.
func NewDataBlock(id BlockID, bsize uint32, home int) (*Block, error) {
	if bsize == 0 || bsize > MaxBlockSize {
		return nil, fmt.Errorf("gas: block size %d out of range: %w", bsize, ErrBadAddress)
	}
	return &Block{ID: id, Kind: KindData, BSize: bsize, Data: make([]byte, bsize), Home: home}, nil
}

// ReadAt copies len(dst) bytes from the block at the given offset, or
// reports a range beyond the block.
func (b *Block) ReadAt(off uint32, dst []byte) error {
	if uint64(off)+uint64(len(dst)) > uint64(len(b.Data)) {
		return fmt.Errorf("gas: read [%d,%d) beyond block %d size %d: %w",
			off, uint64(off)+uint64(len(dst)), b.ID, len(b.Data), ErrBadAddress)
	}
	copy(dst, b.Data[off:])
	return nil
}

// WriteAt copies src into the block at the given offset, with the same
// error contract as ReadAt.
func (b *Block) WriteAt(off uint32, src []byte) error {
	if uint64(off)+uint64(len(src)) > uint64(len(b.Data)) {
		return fmt.Errorf("gas: write [%d,%d) beyond block %d size %d: %w",
			off, uint64(off)+uint64(len(src)), b.ID, len(b.Data), ErrBadAddress)
	}
	copy(b.Data[off:], src)
	return nil
}

// Store is a locality's table of resident blocks. Get is the residency
// check behind every NIC arrival, route and parcel admission. The store
// has one writer, the owning locality's execution context, and takes no
// lock: code outside the rank reaches it through the runtime's doors (a
// driver's claim, a handler's post), or reads it where the rank stands
// still. A block's bytes belong to that context too.
//
// The store is one open-addressed index over BlockID with linear probing,
// where key 0 marks an empty slot (block number 0 is never issued).
// Within one index a slot's key is written once and never given to
// another id, since block numbers are never reused: Remove clears the
// block and leaves the key, and a re-insert of the same id (a
// migrate-back, a replica swapped for its master) refills its own slot.
// When live and cleared keys would fill half the slots, Insert builds a
// new index from the live blocks and never writes to the old one again.
type Store struct {
	idx  *index
	live int // resident blocks
}

type index struct {
	shift uint8  // 32 - log2(len(slots)): Fibonacci hashing keeps the top bits
	mask  uint32 // len(slots) - 1
	keys  int    // slots holding a key, live or cleared
	slots []slot
}

type slot struct {
	key uint32
	blk *Block // nil once removed
}

// noBlocks is the index of an empty store. It has no room for a key, so
// the first Insert replaces it and nothing ever writes to it.
var noBlocks = &index{shift: 32, slots: make([]slot, 1)}

// find returns id's slot in ix, or the empty slot that ends its probe.
func (ix *index) find(id BlockID) (i uint32, found bool) {
	for i = uint32(id) * 0x9E3779B9 >> ix.shift; ; i = (i + 1) & ix.mask {
		switch ix.slots[i].key {
		case uint32(id):
			return i, true
		case 0:
			return i, false
		}
	}
}

// put fills id's empty slot with b.
func (ix *index) put(b *Block) {
	i, _ := ix.find(b.ID)
	ix.slots[i] = slot{key: uint32(b.ID), blk: b}
	ix.keys++
}

// rebuilt returns a new index holding ix's n live blocks and b, with at
// least four slots per block so the next rebuild is as many inserts away
// as there are blocks.
func (ix *index) rebuilt(n int, b *Block) *index {
	bits := uint8(4)
	for 1<<bits < 4*(n+1) {
		bits++
	}
	nx := &index{shift: 32 - bits, mask: 1<<bits - 1, slots: make([]slot, 1<<bits)}
	for _, sl := range ix.slots {
		if sl.blk != nil {
			nx.put(sl.blk)
		}
	}
	nx.put(b)
	return nx
}

// NewStore returns an empty block store.
func NewStore() *Store { return &Store{idx: noBlocks} }

// Insert makes a block resident. It returns an error if the block is
// already resident: double-insertion indicates a broken migration or
// allocation protocol and must surface loudly in tests.
func (s *Store) Insert(b *Block) error {
	if b.ID == 0 {
		return fmt.Errorf("gas: block number 0 is never issued: %w", ErrBadAddress)
	}
	ix := s.idx
	i, found := ix.find(b.ID)
	switch {
	case found && ix.slots[i].blk != nil:
		return fmt.Errorf("gas: block %d already resident", b.ID)
	case found:
		ix.slots[i].blk = b
	case 2*(ix.keys+1) > len(ix.slots):
		s.idx = ix.rebuilt(s.live, b)
	default:
		ix.put(b)
	}
	s.live++
	return nil
}

// Create allocates and inserts a zeroed data block.
func (s *Store) Create(id BlockID, bsize uint32) (*Block, error) {
	b, err := NewDataBlock(id, bsize, 0)
	if err != nil {
		return nil, err
	}
	if err := s.Insert(b); err != nil {
		return nil, err
	}
	return b, nil
}

// Get returns the resident block with the given id, or false if the block
// is not resident here (it may live on another locality).
func (s *Store) Get(id BlockID) (*Block, bool) {
	ix := s.idx
	i, found := ix.find(id)
	if !found {
		return nil, false
	}
	b := ix.slots[i].blk
	return b, b != nil
}

// Remove evicts a block, returning it so a migration can ship its bytes.
func (s *Store) Remove(id BlockID) (*Block, bool) {
	i, found := s.idx.find(id)
	b := s.idx.slots[i].blk
	if !found || b == nil {
		return nil, false
	}
	s.idx.slots[i].blk = nil
	s.live--
	return b, true
}

// Len returns the number of resident blocks.
func (s *Store) Len() int { return s.live }

// Range calls fn for every resident block until fn returns false; fn
// must not call back into the store.
func (s *Store) Range(fn func(*Block) bool) {
	for _, sl := range s.idx.slots {
		if sl.blk != nil && !fn(sl.blk) {
			return
		}
	}
}

// ReadAt copies len(dst) bytes from the block at the given offset. It
// returns an error if the block is not resident or the range is out of
// bounds.
func (s *Store) ReadAt(id BlockID, off uint32, dst []byte) error {
	b, ok := s.Get(id)
	if !ok {
		return fmt.Errorf("gas: read of non-resident block %d", id)
	}
	return b.ReadAt(off, dst)
}

// WriteAt copies src into the block at the given offset, with the same
// error contract as ReadAt.
func (s *Store) WriteAt(id BlockID, off uint32, src []byte) error {
	b, ok := s.Get(id)
	if !ok {
		return fmt.Errorf("gas: write to non-resident block %d", id)
	}
	return b.WriteAt(off, src)
}
