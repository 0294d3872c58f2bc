package agas

import (
	"fmt"
	"sync"

	"nmvgas/internal/gas"
)

// Coherence selects how a replicated block's master keeps its replica
// set coherent with writes.
type Coherence uint8

const (
	// WriteInvalidate (the default) fans an invalidation out to every
	// holder on each write; a stale holder refetches the block from the
	// master on its next read.
	WriteInvalidate Coherence = iota
	// WriteUpdate pushes the written block's new contents to every
	// holder on each write: more write bandwidth, no stale reads after
	// the update lands.
	WriteUpdate
	// RWLease skips per-write coherence traffic entirely: holders serve
	// reads until a bounded lease (100 µs of latency clock) expires, then
	// refetch.
	// Readers observe bounded staleness instead of write-triggered
	// corrections.
	RWLease
)

func (c Coherence) String() string {
	switch c {
	case WriteInvalidate:
		return "write-invalidate"
	case WriteUpdate:
		return "write-update"
	case RWLease:
		return "rw-lease"
	}
	return fmt.Sprintf("coherence(%d)", uint8(c))
}

// ParseCoherence maps a policy name (as printed by String) to its value.
func ParseCoherence(s string) (Coherence, error) {
	switch s {
	case "write-invalidate", "invalidate", "wi":
		return WriteInvalidate, nil
	case "write-update", "update", "wu":
		return WriteUpdate, nil
	case "rw-lease", "lease":
		return RWLease, nil
	}
	return 0, fmt.Errorf("agas: unknown coherence policy %q", s)
}

// ReplicaRoutes is a per-locality read-routing table: block → the rank
// whose replica should serve this locality's reads. The software-managed
// space probes it from the host on every read of a replicated block; the
// static PGAS space fills it once at install time. (The network-managed
// space keeps the equivalent state in the NIC instead — see
// netsim.NIC.InstallReadRoute.)
type ReplicaRoutes struct {
	mu sync.RWMutex
	m  map[gas.BlockID]int
}

// NewReplicaRoutes returns an empty table.
func NewReplicaRoutes() *ReplicaRoutes {
	return &ReplicaRoutes{m: make(map[gas.BlockID]int)}
}

// Set installs the read target for block.
func (r *ReplicaRoutes) Set(block gas.BlockID, target int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[block] = target
}

// Get returns the read target for block, if one is installed.
func (r *ReplicaRoutes) Get(block gas.BlockID) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.m[block]
	return t, ok
}

// Drop removes block's read target.
func (r *ReplicaRoutes) Drop(block gas.BlockID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.m, block)
}

// Len returns the number of installed read targets.
func (r *ReplicaRoutes) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}
