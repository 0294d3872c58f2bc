package workloads

import (
	"fmt"

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
	oneSided
	// The driver sets these (Setup, Shift) only between runs.
	perTenant uint32 // blocks per tenant
	shared    uint32 // shared read-mostly blocks at the end of the table
	stride    uint32
	phase     uint32
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
	tn := &Tenants{}
	tn.oneSided = newOneSided(w, tn.issue)
	return tn
}

// Setup allocates ranks×perTenant tenant blocks plus `shared` shared
// blocks, cyclic over the ranks, and seeds the per-rank Zipf streams
// with skew s (> 1; higher = sharper hotspots). Every tenant's stream
// concentrates on a few hot blocks of its own range, rotated by Shift.
func (tn *Tenants) Setup(bsize, perTenant, shared uint32, readBytes int, skew float64, writeEvery int, seed int64) error {
	if perTenant < 2 {
		return fmt.Errorf("workloads: tenants needs at least 2 blocks per tenant, got %d", perTenant)
	}
	ranks := uint32(tn.w.Ranks())
	if err := tn.setup("tenants", bsize, ranks*perTenant+shared, readBytes, skew, writeEvery, seed, perTenant, shared); err != nil {
		return err
	}
	tn.perTenant, tn.shared = perTenant, shared
	tn.stride = perTenant/3 + 1
	tn.phase = 0
	return nil
}

// Shift rotates every tenant's hotspot to a different part of its range:
// the mid-run regime change the policy must re-converge after.
func (tn *Tenants) Shift() { tn.phase++ }

// issue fires rank's seq-th operation; its completion re-arms the window.
func (tn *Tenants) issue(rank, seq int) {
	st := &tn.st[rank]
	var blk uint32
	write := false
	if tn.shared > 0 && seq%tenantsSharedEvery == 0 {
		// Shared-region access: Zipf-hot, read-mostly, same stream for
		// every tenant — the replication-shaped component.
		blk = uint32(tn.w.Ranks())*tn.perTenant + uint32(st.szip.Uint64())
		write = seq%(tenantsSharedEvery*tenantsSharedWriteEvery) == 0 && seq > 0
	} else {
		// Tenant-range access: this rank's own slice, hotspot rotated by
		// phase·stride so Shift moves it without touching the Zipf draw.
		z := uint32(st.zip.Uint64())
		blk = uint32(rank)*tn.perTenant + (z+tn.phase*tn.stride)%tn.perTenant
		write = tn.writeEvery > 0 && (seq+1)%tn.writeEvery == 0
	}
	tn.fire(rank, seq, blk, write)
}

// Run performs perRank operations from every rank, keeping up to window
// outstanding per rank, and waits for completion. It returns the total
// operation count. Call it repeatedly for epoch-shaped load, with
// Policy.Step between calls.
func (tn *Tenants) Run(perRank, window int) (int, error) { return tn.run("tenants", perRank, window) }
