package netsim

import "nmvgas/internal/gas"

// ByGVA as a destination asks the source NIC to resolve the destination
// from the message's Target address (the network-managed path). Explicit
// ranks mean the host already resolved the destination in software.
const ByGVA = -1

// Ctl values classify fabric-internal control traffic.
const (
	// CtlNone marks ordinary runtime traffic.
	CtlNone uint8 = iota
	// CtlTableUpdate is consumed by the receiving NIC: it installs a
	// block→owner entry pushed by a forwarding NIC. It never reaches the
	// host.
	CtlTableUpdate
	// CtlNack is delivered to the source host after a message arrived
	// somewhere that could not accept it; the runtime re-resolves and
	// resends. Owner carries the correct owner when the NACKing side
	// knew it, else -1.
	CtlNack
	// CtlNackLoop is a CtlNack raised because a message exhausted its
	// forward-hop budget (DefaultMaxHops). Owner carries the home rank as
	// a fresh routing hint; the source counts bounces and eventually
	// abandons the message instead of chasing a broken route forever.
	CtlNackLoop
	// CtlTableBatch is a batched CtlTableUpdate: its payload carries many
	// block→owner entries (see AppendTableEntry), installed by the
	// receiving NIC in one deferred event. A home under
	// Policy.BroadcastUpdates sends one of these per NIC per migration
	// burst instead of one CtlTableUpdate per block.
	CtlTableBatch
)

// Message is one unit of fabric traffic. Payload is opaque to the fabric;
// Wire is the accounted on-the-wire size in bytes (header + payload).
//
// Ownership (DESIGN.md §9 "Message ownership"): a Message has exactly
// one owner at a time. The sender owns it until it hands it to the
// transport; the transport owns it until it hands it to a host handler;
// the handler that consumes a message terminally — runs its action,
// completes its op, or answers it — is the one that releases it, to the
// Recycler of the context running that handler. Paths that retain the
// message (queueIfMoving parks, CtlNack's Nacked back-pointer,
// stale-delivery re-routes) transfer ownership with the pointer and must
// NOT release it. The rule is the same on both engines: on the DES engine
// the message is itself the scheduled event (Engine.AtRankMsg), so no
// deferred closure outlives the owner's release.
type Message struct {
	Kind uint8 // runtime-defined discriminator, opaque here
	Ctl  uint8 // CtlNone for runtime traffic

	// The one-byte flags sit together so the struct packs (the message is
	// copied whole on clones and zeroed on Release).

	// DMA marks one-sided traffic: on arrival at the owner the NIC
	// performs the transfer itself (no host receive overhead). Parcels
	// are two-sided and always cross the host on delivery.
	DMA bool

	// Read marks one-sided read traffic (get requests). Reads of a
	// replicated block may be steered to a replica holder instead of
	// the owner (NIC readRoutes under GVA routing, host replica routes
	// otherwise); all other traffic strictly follows ownership.
	Read bool

	// MigCtl marks migration-protocol parcels so retransmissions of them
	// can be reported separately (a lost commit is the interesting case).
	MigCtl bool

	// Scatter marks a coalesced batch whose payload is a sequence of
	// per-parcel GVA sub-headers (see AppendScatterRecord). A GVA-routing
	// NIC splits such a batch on arrival: it translates every record
	// against its own tables, hands the resident ones to the host in a
	// single up-call, and forwards the movers in-network — no host-side
	// re-route. Only untracked batches scatter (RelSeq == 0): splitting a
	// reliably-tracked message would multiply its sequence number across
	// hosts and break the receive dedup.
	Scatter bool

	// PayloadPooled marks Payload as a Recycler wire buffer; the terminal
	// consumer returns it to its own context's Recycler. On requests it also
	// grants the responder permission to answer from a pooled buffer
	// (the requester promises to copy out and release).
	PayloadPooled bool

	// Waited marks the request of a one-sided op whose issuer blocks on
	// it, and that op's completion. Carried opaquely; the goroutine
	// transport lets whoever delivers one drain an idle destination.
	Waited bool

	Src int // originating rank
	Dst int // resolved rank, or ByGVA

	// Target is the global address the message operates on. For
	// GVA-routed and DMA messages the fabric inspects its block number;
	// otherwise it is along for the ride.
	Target gas.GVA

	// Payload is the opaque application bytes. A typed slice (rather than
	// any) keeps the hot path free of interface-boxing allocations.
	Payload []byte
	Wire    int

	// Hops counts in-network forwards, for stats and loop detection.
	Hops int

	// Block is the routing key, cached from Target at injection.
	Block gas.BlockID

	// Owner piggybacks owner information on control messages.
	Owner int

	// Nacked carries the original message inside a CtlNack so the source
	// can resend it without reconstructing state.
	Nacked *Message

	// OpID correlates one-sided operations with their completions; the
	// fabric carries it opaquely.
	OpID uint64

	// N is a request length for one-sided reads, carried opaquely.
	N uint32

	// RelChan/RelSeq/RelCum belong to the runtime's reliable-delivery
	// layer and are carried opaquely: the channel key, the per-channel
	// sequence number (0 = untracked), and the cumulative ack horizon on
	// ack messages.
	RelChan int32
	RelSeq  uint64
	RelCum  uint64

	// Bounces counts hop-budget NACKs this message has already suffered
	// at its sender; past a small cap the sender abandons it.
	Bounces int

	// Epoch stamps control pushes (CtlTableUpdate/CtlTableBatch) with the
	// sender's membership epoch. A receiving NIC whose table already
	// trusts a newer epoch ignores the push, so a stale in-flight update
	// cannot resurrect a route to a dead or re-homed locality. Zero on
	// ordinary traffic.
	Epoch uint64

	// rxSer is the receive-link serialization time of the hop in flight,
	// stamped by the transmitting NIC (which knows the path's bandwidth
	// taper) and charged by the receiving one on wire arrival.
	rxSer VTime
}

// wireHeader approximates the fixed per-message header size the codec and
// NIC descriptors contribute.
const wireHeader = 32

// WireSize is the accounted size of m: Wire, or a bare header when the
// sender left it unset.
func (m *Message) WireSize() int {
	if m.Wire == 0 {
		return wireHeader
	}
	return m.Wire
}
