package workloads

import (
	"fmt"
	"math/rand"
	"sync"

	"nmvgas/internal/gas"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
)

// Tenants is the multi-tenant key-value serving workload behind the
// rebalancing experiment (F19): one tenant per rank, each firing Zipfian
// one-sided traffic at its own slice of a shared cyclic table. The
// cyclic layout scatters every tenant's blocks across all ranks, so at
// start each tenant's requests are almost entirely remote — the shape a
// heat-driven policy should fix by migrating each tenant's hot blocks to
// the rank that hammers them. Shift() rotates every tenant's Zipf
// hotspot mid-run, invalidating whatever placement the policy has
// converged on and forcing it to re-balance.
//
// An optional shared table region (read by every tenant, rarely written)
// gives the adaptive-replication path something to chew on: its hot
// blocks are read-dominated with a full-width audience, the profile
// where replica sets beat migration.
type Tenants struct {
	w *runtime.World

	mu         sync.Mutex
	lay        gas.Layout
	perTenant  uint32 // blocks per tenant
	shared     uint32 // shared read-mostly blocks at the end of the table
	readBytes  int
	writeEvery int // every n-th tenant op is a write (0 = pure reads)
	stride     uint32
	phase      uint32
	zips       []*rand.Zipf // per-rank tenant-range stream
	szips      []*rand.Zipf // per-rank shared-range stream
	rngs       []*rand.Rand
	st         []readHotRank
	gate       *runtime.LCORef
	reads      int64
	writes     int64
}

// sharedEvery routes every 4th operation to the shared region (when one
// is configured); sharedWriteEvery makes every 50th shared access a
// write, enough to keep replica coherence honest without drowning the
// read signal.
const (
	tenantsSharedEvery      = 4
	tenantsSharedWriteEvery = 50
)

// NewTenants builds the workload; it registers no actions, so it may be
// created before or after World.Start.
func NewTenants(w *runtime.World) *Tenants {
	return &Tenants{w: w, st: make([]readHotRank, w.Ranks())}
}

// Setup allocates ranks×perTenant tenant blocks plus `shared` shared
// blocks, cyclic over the ranks, and seeds the per-rank Zipf streams
// with skew s (> 1; higher = sharper hotspots). Every tenant's stream
// concentrates on a few hot blocks of its own range, rotated by Shift.
func (tn *Tenants) Setup(bsize, perTenant, shared uint32, readBytes int, skew float64, writeEvery int, seed int64) error {
	if skew <= 1 {
		return fmt.Errorf("workloads: zipf skew must be > 1, got %v", skew)
	}
	if perTenant < 2 {
		return fmt.Errorf("workloads: tenants needs at least 2 blocks per tenant, got %d", perTenant)
	}
	if bsize%8 != 0 {
		return fmt.Errorf("workloads: tenants bsize %d not 8-byte aligned", bsize)
	}
	if readBytes < 8 || readBytes%8 != 0 || uint32(readBytes) > bsize {
		return fmt.Errorf("workloads: tenants read size %d (need 8-aligned, 8..bsize)", readBytes)
	}
	ranks := uint32(tn.w.Ranks())
	lay, err := tn.w.AllocCyclic(0, bsize, ranks*perTenant+shared)
	if err != nil {
		return err
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	tn.lay = lay
	tn.perTenant = perTenant
	tn.shared = shared
	tn.readBytes = readBytes
	tn.writeEvery = writeEvery
	tn.stride = perTenant/3 + 1
	tn.phase = 0
	tn.zips = tn.zips[:0]
	tn.szips = tn.szips[:0]
	tn.rngs = tn.rngs[:0]
	for r := uint32(0); r < ranks; r++ {
		rng := rand.New(rand.NewSource(seed + int64(r)*7_919))
		tn.rngs = append(tn.rngs, rng)
		tn.zips = append(tn.zips, rand.NewZipf(rng, skew, 1, uint64(perTenant)-1))
		if shared > 0 {
			tn.szips = append(tn.szips, rand.NewZipf(rng, skew, 1, uint64(shared)-1))
		}
	}
	return nil
}

// Layout returns the whole table allocation (tenant slices + shared
// region) — the layout the policy engine manages.
func (tn *Tenants) Layout() gas.Layout {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return tn.lay
}

// Shift rotates every tenant's hotspot to a different part of its range:
// the mid-run regime change the policy must re-converge after.
func (tn *Tenants) Shift() {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	tn.phase++
}

// issue fires rank's seq-th operation; its completion re-arms the window.
func (tn *Tenants) issue(rank, seq int) {
	tn.mu.Lock()
	var blk uint32
	write := false
	if tn.shared > 0 && seq%tenantsSharedEvery == 0 {
		// Shared-region access: Zipf-hot, read-mostly, same stream for
		// every tenant — the replication-shaped component.
		blk = uint32(tn.w.Ranks())*tn.perTenant + uint32(tn.szips[rank].Uint64())
		write = seq%(tenantsSharedEvery*tenantsSharedWriteEvery) == 0 && seq > 0
	} else {
		// Tenant-range access: this rank's own slice, hotspot rotated by
		// phase·stride so Shift moves it without touching the Zipf draw.
		z := uint32(tn.zips[rank].Uint64())
		blk = uint32(rank)*tn.perTenant + (z+tn.phase*tn.stride)%tn.perTenant
		write = tn.writeEvery > 0 && (seq+1)%tn.writeEvery == 0
	}
	span := 8
	if !write {
		span = tn.readBytes
	}
	off := uint64(tn.rngs[rank].Intn((int(tn.lay.BSize)-span)/8+1)) * 8
	if write {
		tn.writes++
	} else {
		tn.reads++
	}
	target := tn.lay.BlockAt(blk).WithOffset(uint32(off))
	size := tn.readBytes
	tn.mu.Unlock()
	l := tn.w.Locality(rank)
	if write {
		l.PutAsync(target, parcel.PutU64(nil, uint64(seq)<<16|uint64(rank)), func() { tn.onDone(rank) })
		return
	}
	l.GetAsync(target, uint32(size), func([]byte) { tn.onDone(rank) })
}

// onDone runs on the issuing locality at each completion.
func (tn *Tenants) onDone(rank int) {
	tn.mu.Lock()
	st := &tn.st[rank]
	st.completed++
	if st.issued < st.target {
		seq := st.issued
		st.issued++
		tn.mu.Unlock()
		tn.issue(rank, seq)
		return
	}
	done := st.completed == st.target
	gate := tn.gate
	tn.mu.Unlock()
	if done {
		tn.w.Locality(rank).SendParcel(&parcel.Parcel{Action: runtime.ALCOSet, Target: gate.G})
	}
}

// Run performs perRank operations from every rank, keeping up to window
// outstanding per rank, and waits for completion. It returns the total
// operation count. Call it repeatedly for epoch-shaped load, with
// Policy.Step between calls.
func (tn *Tenants) Run(perRank, window int) (int, error) {
	if perRank < 1 || window < 1 {
		return 0, fmt.Errorf("workloads: tenants needs perRank>=1 and window>=1, got %d/%d", perRank, window)
	}
	if window > perRank {
		window = perRank
	}
	tn.mu.Lock()
	if tn.lay.NBlocks == 0 {
		tn.mu.Unlock()
		return 0, fmt.Errorf("workloads: tenants Run before Setup")
	}
	tn.gate = tn.w.NewAndGate(0, tn.w.Ranks())
	tn.reads, tn.writes = 0, 0
	for r := range tn.st {
		tn.st[r] = readHotRank{target: perRank}
	}
	gate := tn.gate
	tn.mu.Unlock()
	for r := 0; r < tn.w.Ranks(); r++ {
		r := r
		prime := window
		tn.w.Proc(r).Run(func() {
			tn.mu.Lock()
			tn.st[r].issued = prime
			tn.mu.Unlock()
			for i := 0; i < prime; i++ {
				tn.issue(r, i)
			}
		})
	}
	if _, err := tn.w.Wait(gate); err != nil {
		return 0, err
	}
	return perRank * tn.w.Ranks(), nil
}
