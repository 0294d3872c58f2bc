package workloads

import (
	"fmt"
	"math/rand"

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
type ReadHot struct{ oneSided }

// oneSided is what ReadHot and Tenants share: a cyclic table read and
// written with one-sided ops from per-rank key streams, on a pump that
// registers no action (each op's completion callback steps it).
type oneSided struct {
	w    *runtime.World
	pump *Pump

	// The driver sets these (Setup, SetWriteEvery) only between runs.
	lay        gas.Layout
	readBytes  int
	writeEvery int
	st         []sideRank // st[r] is rank r's
}

// sideRank is one rank's key streams and the ops its last Run issued.
type sideRank struct {
	rng           *rand.Rand
	zip, szip     *rand.Zipf // szip: Tenants' shared region
	reads, writes int64
}

func newOneSided(w *runtime.World, issue func(rank, seq int)) oneSided {
	return oneSided{w: w, pump: &Pump{w: w, st: make([]pumpRank, w.Ranks()), Issue: issue}}
}

// NewReadHot builds the workload. It registers no actions (reads and
// writes are one-sided), so it may be created before or after
// World.Start.
func NewReadHot(w *runtime.World) *ReadHot {
	rh := &ReadHot{}
	rh.oneSided = newOneSided(w, rh.issue)
	return rh
}

// setup checks what both workloads share, allocates nblocks blocks of
// bsize bytes, cyclic, and seeds each rank's streams from one generator:
// Zipf(skew) over [0, n) and, if shared > 0, over [0, shared).
func (o *oneSided) setup(name string, bsize, nblocks uint32, readBytes int, skew float64, writeEvery int, seed int64, n, shared uint32) error {
	if skew <= 1 {
		return fmt.Errorf("workloads: zipf skew must be > 1, got %v", skew)
	}
	if bsize%8 != 0 {
		return fmt.Errorf("workloads: %s bsize %d not 8-byte aligned", name, bsize)
	}
	if readBytes < 8 || readBytes%8 != 0 || uint32(readBytes) > bsize {
		return fmt.Errorf("workloads: %s read size %d (need 8-aligned, 8..bsize)", name, readBytes)
	}
	lay, err := o.w.AllocCyclic(0, bsize, nblocks)
	if err != nil {
		return err
	}
	o.lay, o.readBytes, o.writeEvery = lay, readBytes, writeEvery
	o.st = make([]sideRank, o.w.Ranks())
	for r := range o.st {
		st := &o.st[r]
		st.rng = rand.New(rand.NewSource(seed + int64(r)*7_919))
		st.zip = rand.NewZipf(st.rng, skew, 1, uint64(n)-1)
		if shared > 0 {
			st.szip = rand.NewZipf(st.rng, skew, 1, uint64(shared)-1)
		}
	}
	return nil
}

// Setup allocates the table (nblocks blocks of bsize bytes, cyclic) and
// seeds the per-rank Zipf block streams with skew s. Reads pull readBytes
// per operation — sizing them up makes the hot block's serving link, not
// the issuing host, the bottleneck, which is the regime replication
// relieves. Every writeEvery-th operation is an 8-byte write (0 disables
// writes entirely); writeEvery=20 gives the canonical 5% write mix.
func (rh *ReadHot) Setup(bsize, nblocks uint32, readBytes int, skew float64, writeEvery int, seed int64) error {
	if nblocks < 2 {
		return fmt.Errorf("workloads: readhot needs at least 2 blocks, got %d", nblocks)
	}
	return rh.setup("readhot", bsize, nblocks, readBytes, skew, writeEvery, seed, nblocks, 0)
}

// Layout returns the table allocation.
func (o *oneSided) Layout() gas.Layout { return o.lay }

// SetWriteEvery changes the write mix between runs (0 = pure reads),
// letting one table serve both a coherence-churning warm phase and a
// write-free measured phase.
func (rh *ReadHot) SetWriteEvery(n int) { rh.writeEvery = n }

// Reads reports how many reads the last Run issued.
func (o *oneSided) Reads() int64 {
	var n int64
	for _, st := range o.st {
		n += st.reads
	}
	return n
}

// issue fires rank's seq-th operation at a Zipf-drawn block.
func (rh *ReadHot) issue(rank, seq int) {
	blk := uint32(rh.st[rank].zip.Uint64())
	rh.fire(rank, seq, blk, rh.writeEvery > 0 && (seq+1)%rh.writeEvery == 0)
}

// fire sends rank's seq-th operation to block blk at a random aligned
// offset: an 8-byte write or a readBytes read, counted in the rank's
// reads or writes. Its completion steps the pump.
func (o *oneSided) fire(rank, seq int, blk uint32, write bool) {
	st := &o.st[rank]
	span := 8
	if !write {
		span = o.readBytes
	}
	target := o.lay.BlockAt(blk).WithOffset(uint32(st.rng.Intn((int(o.lay.BSize)-span)/8+1)) * 8)
	l := o.w.Locality(rank)
	if write {
		st.writes++
		l.PutAsync(target, parcel.PutU64(nil, uint64(seq)<<16|uint64(rank)), func() { o.pump.onDone(rank) })
		return
	}
	st.reads++
	l.GetAsync(target, uint32(o.readBytes), func([]byte) { o.pump.onDone(rank) })
}

// run is both workloads' Run: it clears the counts and drives the pump.
func (o *oneSided) run(name string, perRank, window int) (int, error) {
	if o.lay.NBlocks == 0 {
		return 0, fmt.Errorf("workloads: %s Run before Setup", name)
	}
	for r := range o.st {
		o.st[r].reads, o.st[r].writes = 0, 0
	}
	return o.pump.drive(perRank, window)
}

// Run performs perRank operations from every rank, keeping up to window
// outstanding per rank, and waits for completion. It returns the total
// operation count.
func (rh *ReadHot) Run(perRank, window int) (int, error) { return rh.run("readhot", perRank, window) }
