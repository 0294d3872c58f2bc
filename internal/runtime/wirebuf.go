package runtime

import (
	"sync"

	"nmvgas/internal/netsim"
)

// Pooled wire buffers for one-sided payloads and user parcels. A put's
// payload, a small get's reply and a user action's parcel live exactly
// from encode to the terminal consumer (the owner's store write, the
// requester's copy-out, runParcel as the action returns, or the
// coalescer's copy into a batch; a parked or re-routed parcel carries its
// buffer along), so they are recycled instead of allocated per op.
// Control parcels stay on the heap: their actions keep the payload (a
// migration retry's parcel copy, an LCO future's value).
//
// Pooling is only legal when nothing else can alias the buffer after the
// terminal consumer: the reliability layer keeps pristine copies sharing
// Payload, and both engines' fault injectors clone messages wholesale,
// so worlds with either stay on plain heap buffers (payloadPoolable).

// Two size classes; larger payloads go to the heap (rare on the fast
// path, and pooling huge buffers pins memory). Parcels take the small
// class: in a 4 KiB buffer each one in flight would pin a page, and under
// a backlog every pool miss would clear one.
const (
	wireBufSmall = 256
	wireBufCap   = 4096
)

// The pools hold pointers to the backing arrays, not slice headers: a
// pointer rides the pool's interface for free, where boxing a header
// would cost an allocation on every return.
var (
	smallWireBufPool = sync.Pool{New: func() any { return new([wireBufSmall]byte) }}
	wireBufPool      = sync.Pool{New: func() any { return new([wireBufCap]byte) }}
)

// wireBuf is the one pooled-or-heap choice: a zero-length buffer of
// capacity at least n, pooled when pool is set and n fits a class (the
// bool reports which), else fresh.
func wireBuf(pool bool, n int) ([]byte, bool) {
	switch {
	case pool && n <= wireBufSmall:
		return smallWireBufPool.Get().(*[wireBufSmall]byte)[:0], true
	case pool && n <= wireBufCap:
		return wireBufPool.Get().(*[wireBufCap]byte)[:0], true
	}
	return make([]byte, 0, n), false
}

// payloadPoolable reports whether this world may carry pooled payloads:
// no reliability layer and so no fault injector (see the comment above;
// a world with faults configured always runs the reliability layer).
func (l *Locality) payloadPoolable() bool { return l.w.relw == nil }

// releasePayload reclaims m's payload after its terminal use (the
// consumer keeps no alias past this call). A kGetReq carries the flag
// as a permission and no payload (see rma.go): nothing to reclaim.
func (l *Locality) releasePayload(m *netsim.Message) {
	if m.PayloadPooled && m.Payload != nil {
		putWireBuf(m.Payload)
		m.Payload = nil
		m.PayloadPooled = false
	}
}
