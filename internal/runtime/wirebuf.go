package runtime

import "nmvgas/internal/netsim"

// Recycled wire buffers (DESIGN.md §10) carry one-sided payloads and user
// parcels, which live exactly from encode to the terminal consumer (the
// owner's store write, the requester's copy-out, runParcel as the action
// returns, the coalescer's copy into a batch). Control parcels stay on the
// heap: their actions keep the payload. So do worlds whose reliability
// layer or fault injector copies messages wholesale (payloadPoolable).

// wireBuf is the one recycled-or-heap choice: a zero-length buffer of
// capacity at least n, from l's Recycler when pool is set and n fits a
// class (the bool reports which), else fresh.
func (l *Locality) wireBuf(pool bool, n int) ([]byte, bool) {
	if pool {
		return l.free.Buf(n)
	}
	return make([]byte, 0, n), false
}

// payloadPoolable reports whether this world may carry recycled payloads:
// no reliability layer, and so no fault injector.
func (l *Locality) payloadPoolable() bool { return l.w.relw == nil }

// releasePayload reclaims m's payload after its terminal use (the
// consumer keeps no alias past this call). A kGetReq carries the flag
// as a permission and no payload (see rma.go): nothing to reclaim.
func (l *Locality) releasePayload(m *netsim.Message) {
	if m.PayloadPooled && m.Payload != nil {
		l.free.PutBuf(m.Payload)
		m.Payload = nil
		m.PayloadPooled = false
	}
}
