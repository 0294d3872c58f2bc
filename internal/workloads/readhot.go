package workloads

import (
	"fmt"
	"math/rand"
	"sync"

	"nmvgas/internal/gas"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
)

// ReadHot is the read-heavy skewed workload the replication evaluation
// drives: every rank fires one-sided reads at Zipf-distributed blocks of
// a shared table, with a small configurable fraction of 8-byte writes
// mixed into the same skewed stream. A handful of hot blocks absorb most
// of the reads — exactly the shape replica sets exploit — while the
// writes keep the coherence machinery honest (invalidation fan-out,
// refills, stale-window forwards).
//
// The caller owns the replication decision: allocate via Setup, then
// World.ReplicateLive(Layout(), n) (or nothing, for the baseline), then
// Run. The workload itself only issues reads and writes.
type ReadHot struct {
	w *runtime.World

	mu         sync.Mutex
	lay        gas.Layout
	zips       []*rand.Zipf
	rngs       []*rand.Rand
	readBytes  int
	writeEvery int
	st         []readHotRank
	gate       *runtime.LCORef
	reads      int64
	writes     int64
}

type readHotRank struct {
	issued, completed, target int
}

// NewReadHot builds the workload. It registers no actions (reads and
// writes are one-sided), so it may be created before or after
// World.Start.
func NewReadHot(w *runtime.World) *ReadHot {
	return &ReadHot{w: w, st: make([]readHotRank, w.Ranks())}
}

// Setup allocates the table (nblocks blocks of bsize bytes, cyclic) and
// seeds the per-rank Zipf block streams with skew s. Reads pull readBytes
// per operation — sizing them up makes the hot block's serving link, not
// the issuing host, the bottleneck, which is the regime replication
// relieves. Every writeEvery-th operation is an 8-byte write (0 disables
// writes entirely); writeEvery=20 gives the canonical 5% write mix.
func (rh *ReadHot) Setup(bsize, nblocks uint32, readBytes int, skew float64, writeEvery int, seed int64) error {
	if skew <= 1 {
		return fmt.Errorf("workloads: zipf skew must be > 1, got %v", skew)
	}
	if nblocks < 2 {
		return fmt.Errorf("workloads: readhot needs at least 2 blocks, got %d", nblocks)
	}
	if bsize%8 != 0 {
		return fmt.Errorf("workloads: readhot bsize %d not 8-byte aligned", bsize)
	}
	if readBytes < 8 || readBytes%8 != 0 || uint32(readBytes) > bsize {
		return fmt.Errorf("workloads: readhot read size %d (need 8-aligned, 8..bsize)", readBytes)
	}
	lay, err := rh.w.AllocCyclic(0, bsize, nblocks)
	if err != nil {
		return err
	}
	rh.mu.Lock()
	defer rh.mu.Unlock()
	rh.lay = lay
	rh.readBytes = readBytes
	rh.writeEvery = writeEvery
	rh.zips = rh.zips[:0]
	rh.rngs = rh.rngs[:0]
	for r := 0; r < rh.w.Ranks(); r++ {
		rng := rand.New(rand.NewSource(seed + int64(r)*7_919))
		rh.rngs = append(rh.rngs, rng)
		rh.zips = append(rh.zips, rand.NewZipf(rng, skew, 1, uint64(nblocks)-1))
	}
	return nil
}

// Layout returns the table allocation (for ReplicateLive).
func (rh *ReadHot) Layout() gas.Layout {
	rh.mu.Lock()
	defer rh.mu.Unlock()
	return rh.lay
}

// SetWriteEvery changes the write mix between runs (0 = pure reads),
// letting one table serve both a coherence-churning warm phase and a
// write-free measured phase.
func (rh *ReadHot) SetWriteEvery(n int) {
	rh.mu.Lock()
	defer rh.mu.Unlock()
	rh.writeEvery = n
}

// Reads reports how many reads the last Run issued.
func (rh *ReadHot) Reads() int64 { rh.mu.Lock(); defer rh.mu.Unlock(); return rh.reads }

// issue fires rank's seq-th operation; its completion re-arms the window.
func (rh *ReadHot) issue(rank, seq int) {
	rh.mu.Lock()
	blk := uint32(rh.zips[rank].Uint64())
	write := rh.writeEvery > 0 && (seq+1)%rh.writeEvery == 0
	span := 8
	if !write {
		span = rh.readBytes
	}
	off := uint64(rh.rngs[rank].Intn((int(rh.lay.BSize)-span)/8+1)) * 8
	if write {
		rh.writes++
	} else {
		rh.reads++
	}
	target := rh.lay.BlockAt(blk).WithOffset(uint32(off))
	size := rh.readBytes
	rh.mu.Unlock()
	l := rh.w.Locality(rank)
	if write {
		l.PutAsync(target, parcel.PutU64(nil, uint64(seq)<<16|uint64(rank)), func() { rh.onDone(rank) })
		return
	}
	l.GetAsync(target, uint32(size), func([]byte) { rh.onDone(rank) })
}

// onDone runs on the issuing locality at each completion.
func (rh *ReadHot) onDone(rank int) {
	rh.mu.Lock()
	st := &rh.st[rank]
	st.completed++
	if st.issued < st.target {
		seq := st.issued
		st.issued++
		rh.mu.Unlock()
		rh.issue(rank, seq)
		return
	}
	done := st.completed == st.target
	gate := rh.gate
	rh.mu.Unlock()
	if done {
		rh.w.Locality(rank).SendParcel(&parcel.Parcel{Action: runtime.ALCOSet, Target: gate.G})
	}
}

// Run performs perRank operations from every rank, keeping up to window
// outstanding per rank, and waits for completion. It returns the total
// operation count.
func (rh *ReadHot) Run(perRank, window int) (int, error) {
	if perRank < 1 || window < 1 {
		return 0, fmt.Errorf("workloads: readhot needs perRank>=1 and window>=1, got %d/%d", perRank, window)
	}
	if window > perRank {
		window = perRank
	}
	rh.mu.Lock()
	if rh.lay.NBlocks == 0 {
		rh.mu.Unlock()
		return 0, fmt.Errorf("workloads: readhot Run before Setup")
	}
	rh.gate = rh.w.NewAndGate(0, rh.w.Ranks())
	rh.reads, rh.writes = 0, 0
	for r := range rh.st {
		rh.st[r] = readHotRank{target: perRank}
	}
	gate := rh.gate
	rh.mu.Unlock()
	for r := 0; r < rh.w.Ranks(); r++ {
		r := r
		prime := window
		rh.w.Proc(r).Run(func() {
			rh.mu.Lock()
			rh.st[r].issued = prime
			rh.mu.Unlock()
			for i := 0; i < prime; i++ {
				rh.issue(r, i)
			}
		})
	}
	if _, err := rh.w.Wait(gate); err != nil {
		return 0, err
	}
	return perRank * rh.w.Ranks(), nil
}
