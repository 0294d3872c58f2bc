package agas

import (
	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// CorrectionPolicy selects what a software cache does when the network
// tells it an entry was stale.
type CorrectionPolicy uint8

const (
	// CorrectionUpdate installs the corrected owner (default: one wrong
	// send per migration per source).
	CorrectionUpdate CorrectionPolicy = iota
	// CorrectionInvalidate merely drops the stale entry, so the next
	// send defaults back to the home and relearns. Exists for the churn
	// ablation: it trades table accuracy for update traffic.
	CorrectionInvalidate
)

// SWCache is the per-locality software translation cache of the
// software-managed AGAS. It wraps the same bounded-LRU table the NIC
// model uses — the difference the experiments measure is *where* the
// probe happens (host CPU at SWLookup cost vs NIC at NICLookup cost) and
// who repairs staleness, not the replacement policy.
type SWCache struct {
	table  *netsim.TransTable
	policy CorrectionPolicy

	corrections uint64
}

// NewSWCache returns a cache bounded to capacity entries (0 = unbounded).
func NewSWCache(capacity int, policy CorrectionPolicy) *SWCache {
	return &SWCache{table: netsim.NewTransTable(capacity), policy: policy}
}

// Lookup probes the cache.
func (c *SWCache) Lookup(block gas.BlockID) (int, bool) {
	return c.table.Lookup(block)
}

// Learn installs a translation observed from lookup replies or owner
// updates.
func (c *SWCache) Learn(block gas.BlockID, owner int) {
	c.table.Update(block, owner)
}

// Correct applies the configured policy to a staleness correction.
func (c *SWCache) Correct(block gas.BlockID, owner int) {
	c.corrections++
	if c.policy == CorrectionInvalidate {
		c.table.Invalidate(block)
		return
	}
	c.table.Update(block, owner)
}

// Clear drops every cached translation (a reborn locality's previous
// incarnation's cache is meaningless to the new one).
func (c *SWCache) Clear() {
	c.table.Reset()
}

// Stats returns the full counter set: the underlying table's
// hit/miss/eviction/update counters plus the cache's own staleness
// corrections. (Earlier versions silently discarded the eviction and
// update counts.)
func (c *SWCache) Stats() (hits, misses, evictions, updates, corrections uint64) {
	h, m, ev, up := c.table.Stats()
	return h, m, ev, up, c.corrections
}

// Len returns the resident entry count.
func (c *SWCache) Len() int {
	return c.table.Len()
}
