package runtime

import (
	"sync"

	"nmvgas/internal/netsim"
)

// Pooled wire buffers for one-sided payloads. A put's payload and a
// small get's reply live exactly from encode to the terminal consumer
// (the owner's store write, the requester's copy-out), so they can be
// recycled instead of allocated per op — that is most of the difference
// between the put path's old alloc profile and the parcel pump's.
//
// Pooling is only legal when nothing else can alias the buffer after the
// terminal consumer: the reliability layer keeps pristine copies sharing
// Payload, and both engines' fault injectors clone messages wholesale,
// so worlds with either stay on plain heap buffers (payloadPoolable).

// wireBufCap bounds pooled buffer capacity; larger payloads go to the
// heap (rare on the fast path, and pooling huge buffers pins memory).
const wireBufCap = 4096

// The pool holds pointers to the backing arrays, not slice headers: a
// pointer rides the pool's interface for free, where boxing a header
// would cost an allocation on every return.
var wireBufPool = sync.Pool{
	New: func() any { return new([wireBufCap]byte) },
}

// getWireBuf returns a zero-length pooled buffer with at least n
// capacity, or a fresh heap buffer when n exceeds the pooled size.
func getWireBuf(n int) ([]byte, bool) {
	if n > wireBufCap {
		return make([]byte, 0, n), false
	}
	return wireBufPool.Get().(*[wireBufCap]byte)[:0], true
}

// wireBuf is the one pooled-or-heap choice: a zero-length buffer of
// capacity n, from the pool when pool is set (and n fits), else fresh.
func wireBuf(pool bool, n int) ([]byte, bool) {
	if pool {
		return getWireBuf(n)
	}
	return make([]byte, 0, n), false
}

// putWireBuf returns a pooled buffer. Callers pass exactly the buffers
// getWireBuf marked pooled (tracked via Message.PayloadPooled), still
// starting at the array's first byte.
func putWireBuf(b []byte) {
	wireBufPool.Put((*[wireBufCap]byte)(b[:wireBufCap]))
}

// payloadPoolable reports whether this world may carry pooled payloads:
// no reliability layer and no fault injector (see the comment above; a
// DES world with faults configured always runs the reliability layer).
func (l *Locality) payloadPoolable() bool {
	return l.w.relw == nil && l.w.faults == nil
}

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
