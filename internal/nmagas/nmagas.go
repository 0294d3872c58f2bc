// Package nmagas implements the paper's primary contribution: keeping the
// active global address space's translation state in the *network* rather
// than in runtime software. The authoritative ownership directory (package
// agas) is still the source of truth, but every change to it is mirrored
// into NIC-resident translation state so that the data path — parcel
// sends, one-sided puts and gets — is resolved and repaired entirely
// below the host:
//
//   - at the source, the NIC translates GVA→owner from its bounded table
//     (falling back to the home encoded in the address);
//   - at a stale destination, the NIC forwards in-network using the route
//     the migration commit installed, with no host involvement;
//   - forwarding NICs push corrected entries back to source NICs so the
//     steady state is one direct hop.
//
// This package owns the mirroring protocol (what the home and the old and
// new owners install at migration commit) and the update-policy knobs the
// ablation benchmarks sweep.
package nmagas

import (
	"sync/atomic"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// UpdatePolicy selects how NIC tables learn about migrations beyond the
// mandatory authoritative installs at the home and old owner.
type UpdatePolicy uint8

const (
	// UpdateOnForward is the paper's design: source NICs learn lazily,
	// from pushes emitted by forwarding NICs (netsim Policy.PushUpdates).
	UpdateOnForward UpdatePolicy = iota
	// UpdateBroadcast eagerly pushes every commit to every NIC. It makes
	// the first post-migration send direct at the price of O(ranks)
	// control messages per migration — the ablation quantifies when that
	// trade is worth it.
	UpdateBroadcast
)

// Transport is what the mirror needs of the network underneath it: the
// simulated fabric and the goroutine transport both provide it, so the
// install protocol below is the same code on either engine.
type Transport interface {
	Ranks() int
	// Send injects m at rank from's NIC.
	Send(from int, m *netsim.Message)
	// State runs fn on rank's NIC translation state, under the engine's
	// exclusion: the rank's event context on the simulated fabric, the
	// NIC's mutex on the goroutine transport.
	State(rank int, fn func(*netsim.TransState))
	// Defer runs fn on rank's own timeline once the caller's step is
	// done and before time advances (at once where there is no clock).
	Defer(rank int, fn func())
}

// Mirror applies directory changes to NIC translation state. One Mirror
// serves a whole world; its methods are called by the runtime at the
// protocol points of the migration state machine.
//
// Under UpdateBroadcast, commits are not pushed one control message per
// block: commits that land within the same event horizon are accumulated
// per home and flushed as one CtlTableBatch per destination NIC, so a
// migration burst costs O(ranks) control messages, not O(ranks × blocks).
type Mirror struct {
	net    Transport
	policy UpdatePolicy

	installs   atomic.Uint64
	broadcasts atomic.Uint64

	// homes[r] accumulates broadcast entries committed at home r until
	// r's armed flush runs (deferred on r's own timeline, so it runs
	// after the committing step finishes but before time advances). One
	// slot per home, touched only from that home's rank context: commits
	// at different homes never share mutable state, and flush order is
	// fixed by the per-home event streams rather than map iteration order
	// — which also makes the eager policy safe under the sharded engine.
	homes []mirrorHome
}

// mirrorHome is one home rank's broadcast accumulation slot.
type mirrorHome struct {
	entries []byte
	armed   bool
}

// NewMirror returns a mirror over net with the given update policy.
func NewMirror(net Transport, policy UpdatePolicy) *Mirror {
	return &Mirror{net: net, policy: policy, homes: make([]mirrorHome, net.Ranks())}
}

// CommitAtHome installs the authoritative route for block at its home
// NIC. Called when the home processes a migration commit. The caller is
// responsible for charging netsim NICUpdate cost on the home's timeline.
func (m *Mirror) CommitAtHome(home int, block gas.BlockID, owner int) {
	m.install(home, block, owner)
	if m.policy == UpdateBroadcast {
		m.broadcastUpdate(home, block, owner)
	}
}

// TombstoneAtOldOwner installs the forwarding route at the NIC of the
// locality the block just left, so in-flight and stale traffic bounces
// onward without host involvement.
func (m *Mirror) TombstoneAtOldOwner(old int, block gas.BlockID, owner int) {
	m.install(old, block, owner)
}

func (m *Mirror) install(rank int, block gas.BlockID, owner int) {
	m.installs.Add(1)
	m.net.State(rank, func(st *netsim.TransState) { st.InstallRoute(block, owner) })
}

// ClearResident removes stale routes at the *new* owner: once the block
// is resident its NIC must not hold a route entry saying it lives
// elsewhere (left over if the block bounced through this locality
// before).
func (m *Mirror) ClearResident(owner int, block gas.BlockID) {
	m.net.State(owner, func(st *netsim.TransState) { st.ClearResident(block) })
}

// Drop removes all NIC state for block everywhere (used by free). It is a
// bookkeeping sweep, not a simulated broadcast: free is a setup-phase
// operation in this reproduction.
func (m *Mirror) Drop(block gas.BlockID) {
	for r := 0; r < m.net.Ranks(); r++ {
		m.ClearResident(r, block)
	}
}

// broadcastUpdate queues one commit for eager propagation and arms the
// burst flush. The flush is deferred to the end of the current simulated
// instant, so every commit processed in the same event horizon rides the
// same CtlTableBatch; deliveries are real traffic, so the eager policy's
// cost stays visible in the results.
func (m *Mirror) broadcastUpdate(home int, block gas.BlockID, owner int) {
	m.broadcasts.Add(1)
	slot := &m.homes[home]
	slot.entries = netsim.AppendTableEntry(slot.entries, block, owner)
	if !slot.armed {
		slot.armed = true
		m.net.Defer(home, func() { m.flushHome(home) })
	}
}

// flushHome emits one CtlTableBatch per destination covering every
// commit queued at this home since its last flush. It runs as an event
// on the home's own timeline, so the batch rides the home NIC's
// transmit queue exactly where the commits happened.
func (m *Mirror) flushHome(home int) {
	slot := &m.homes[home]
	entries := slot.entries
	slot.entries = nil // ownership moves to the in-flight messages
	slot.armed = false
	if len(entries) == 0 {
		return
	}
	for r := 0; r < m.net.Ranks(); r++ {
		if r == home {
			continue
		}
		// One message per destination, all sharing the entry bytes (read-
		// only from here on); each receiving NIC releases its own.
		b := netsim.NewMessage()
		b.Ctl = netsim.CtlTableBatch
		b.Src = home
		b.Dst = r
		b.Payload = entries
		b.Wire = 32 + len(entries)
		m.net.Send(home, b)
	}
}

// Stats returns the cumulative install and broadcast counts (broadcasts
// counts committed blocks queued for eager propagation, not wire
// messages).
func (m *Mirror) Stats() (installs, broadcasts uint64) {
	return m.installs.Load(), m.broadcasts.Load()
}
