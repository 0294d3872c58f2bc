package runtime

import (
	"encoding/binary"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// One-sided operations. The four kinds — kPutReq, kGetReq and the
// vectored kPutVec/kGetVec, where one request carries many fragments of
// a single block and costs one completion — differ in how their payload
// is laid out and how its bytes are applied, and in nothing else, so
// they share one path:
//
//	issue    registers the op at the requester and routes the request,
//	         laid out by one of four *Req builders for the *Async entry
//	         points and the blocking Proc ops (Proc.await)
//	hostRMA  the host door: the owner's own ops, traffic parked behind a
//	         migration, and whatever arrived stale and is repaired in
//	         software
//	onDMA    the NIC door: the NIC found the block resident and applies
//	         the op below the host
//	serve    the one owner-side sequence behind both doors
//	apply    the only place that knows a payload's layout
//
// Wire formats (offsets are relative to the request's target GVA):
//
//	kPutReq payload: the bytes
//	kGetReq payload: none, N is the length; the kGetRep reply is the bytes
//	kPutVec payload: [u32 off][u32 len][len bytes] repeated
//	kGetVec payload: [u32 off][u32 len] repeated; the kGetRep reply is
//	the fragments concatenated in request order
//
// Payloads are assembled straight into a wire buffer (pooled when the
// world allows it, see wirebuf.go), so bytes are copied exactly once, at
// encode. PayloadPooled means two things: on a message with a payload,
// that the payload is a pooled buffer its terminal consumer returns; on
// a kGetReq, which has none, only the requester's permission to answer
// from one (its completion copies out before returning).

// PutSeg is one fragment of a vectored put.
type PutSeg struct {
	Off  uint32
	Data []byte
}

// GetSeg is one fragment of a vectored get.
type GetSeg struct {
	Off, N uint32
}

// segHdr is the size of a fragment's [off][len] header.
const segHdr = 8

// ---------------------------------------------------------------------
// Issue side

// PutAsync writes data at dst and runs done on this locality when the
// write is remotely complete. Call it from this locality's execution
// context (an action body or a Proc task); a driver calls Proc.PutAsync.
func (l *Locality) PutAsync(dst gas.GVA, data []byte, done func()) {
	l.issue(&rmaReq{kind: kPutReq, target: dst, data: data}, opState{pdone: done})
}

// GetAsync reads n bytes at src and runs done with the data; PutAsync's
// calling rule applies. done may retain the data.
func (l *Locality) GetAsync(src gas.GVA, n uint32, done func(data []byte)) {
	l.issue(&rmaReq{kind: kGetReq, n: n, target: src}, opState{done: done})
}

// rmaReq is a one-sided request as its caller names it: the bytes (data)
// or fragments (psegs, gsegs) it writes or reads at target, and for a
// kGetReq the n bytes it reads. pooled asks a read's reply for a recycled
// buffer, for a completion that copies the data out before returning.
// issue lays it out on the token, from the locality's Recycler; the
// caller's slices must hold until then.
type rmaReq struct {
	kind   uint8
	pooled bool
	n      uint32
	target gas.GVA
	data   []byte
	psegs  []PutSeg
	gsegs  []GetSeg
}

// layout encodes r's payload: whether it is recycled (a kGetReq carries
// none, and its flag is the reply's permission; a gather's segment list
// rides the reply's choice), and n, the bytes written or the reply's
// length.
func (l *Locality) layout(r *rmaReq) (buf []byte, pooled bool, n uint32) {
	pool := l.payloadPoolable()
	switch r.kind {
	case kPutReq:
		buf, pooled = l.wireBuf(pool, len(r.data))
		return append(buf, r.data...), pooled, uint32(len(r.data))
	case kPutVec:
		for i := range r.psegs {
			n += uint32(len(r.psegs[i].Data))
		}
		buf, pooled = l.wireBuf(pool, len(r.psegs)*segHdr+int(n))
		for i := range r.psegs {
			s := &r.psegs[i]
			buf = binary.LittleEndian.AppendUint32(buf, s.Off)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Data)))
			buf = append(buf, s.Data...)
		}
		return buf, pooled, n
	case kGetVec:
		buf, pooled = l.wireBuf(pool && r.pooled, len(r.gsegs)*segHdr)
		for _, s := range r.gsegs {
			n += s.N
			buf = binary.LittleEndian.AppendUint32(buf, s.Off)
			buf = binary.LittleEndian.AppendUint32(buf, s.N)
		}
		return buf, pooled, n
	}
	return nil, pool && r.pooled, r.n
}

// issue registers a one-sided op and routes its request, marked Waited
// when a blocked caller waits on it (st.wait, see Proc.await). Like
// completeOp it runs on the locality's token, which owns the op table
// and the Recycler its payload comes from.
func (l *Locality) issue(r *rmaReq, st opState) {
	payload, pooled, n := l.layout(r)
	id := l.newOpID()
	l.note(noteOpStart, r.target.Block(), 0, id)
	l.ops.put(id, st)
	m := l.free.Message()
	if r.kind == kGetReq || r.kind == kGetVec {
		l.stats.GetOps++
		l.stats.GetBytes += int64(n)
		m.N = n
	} else {
		l.stats.PutOps++
		l.stats.PutBytes += int64(n)
	}
	m.Kind = r.kind
	m.Src = l.rank
	m.Target = r.target
	m.DMA = true
	m.Payload = payload
	m.PayloadPooled = pooled
	m.Waited = st.wait != nil
	m.Wire = 32 + len(payload)
	m.OpID = id
	l.routeMsg(m)
}

func (l *Locality) completeOp(id uint64, data []byte) {
	st, ok := l.ops.take(id)
	if !ok {
		if l.relLateCompletion() {
			return
		}
		l.w.fail("rank %d: completion for unknown op %d", l.rank, id)
	}
	path := LatGetDone
	if data == nil { // only reads complete with data
		path = LatPutDone
	}
	l.note(noteOpDone, 0, uint64(path), id)
	if st.done != nil {
		st.done(data)
	}
	if st.pdone != nil {
		st.pdone()
	}
	if wt := st.wait; wt != nil {
		copy(wt.into, data)
		if !wt.state.CompareAndSwap(waitPending, waitCompleted) {
			wt.ch <- struct{}{} // the caller parked first; this is the last touch of wt
		}
	}
}

// ---------------------------------------------------------------------
// Owner side: two doors, one serve

// hostRMA is the host door. It admits what the NIC does not apply: the
// owner's own ops (the local fast path) and traffic the NIC handed up
// because the block is moving or gone — parked behind the migration, or
// repaired by the address-space strategy.
func (l *Locality) hostRMA(m *netsim.Message) {
	if blk, ok := l.admit(m, m.Target.Block(), nil, true); ok {
		l.serve(m, blk, false)
	}
}

// onDMA is the NIC door: one-sided traffic applied at the NIC, with no
// host executor involvement. The NIC core checked residency.
func (l *Locality) onDMA(m *netsim.Message) {
	blk, ok := l.store.Get(m.Target.Block())
	if !ok {
		l.w.fail("rank %d: DMA against missing block %d", l.rank, m.Target.Block())
	}
	l.serve(m, blk, true)
}

// serve applies one-sided op m to blk, which is present here, and
// answers it. nic says which door m came through, and decides only what
// the doors differ in: who pays for the copy (the NIC's DMA event already
// did; the host charges its core), whether the answer and the coherence
// fan-out leave from NIC context or as host injections (send), whether
// a read that hit a stale replica is re-routed in the network or by the
// host (toMaster), and that only the host completes its own op inline.
func (l *Locality) serve(m *netsim.Message, blk *gas.Block, nic bool) {
	b := m.Target.Block()
	if blk.Kind != gas.KindData {
		l.w.fail("rank %d: one-sided op on non-data block %d", l.rank, b)
	}
	read := m.Read
	if blk.Replica {
		if !read {
			// Writes never land on replicas: chase the master.
			l.toMaster(m, b, nic)
			return
		}
		// Freshness is checked at transfer time (an invalidation can land
		// between the routing decision and the read), and only for reads:
		// the check expires leases and starts refills.
		if fresh, _ := l.replicaFresh(b); !fresh {
			l.stats.ReplicaStaleReads++
			l.toMaster(m, b, nic)
			return
		}
		l.stats.ReplicaReads++
	}
	if !l.relAccept(m) {
		// Duplicate request: the first copy applied the effect and its
		// (retransmitted-until-acked) answer completes the op. It is not
		// an access, so it adds no heat.
		l.free.Release(m)
		return
	}
	issuer := uint64(m.Src) << 1
	if read {
		issuer |= 1
	}
	l.note(noteServe, b, issuer, m.OpID)
	if !nic {
		n := len(m.Payload)
		if read {
			n = int(m.N)
		}
		l.exec.Charge(l.w.cfg.Model.CopyTime(n))
	}
	data, pooled := l.apply(m, blk)
	src, opID, waited := m.Src, m.OpID, m.Waited
	l.releasePayload(m)
	l.free.Release(m)
	if !read {
		l.replFanOut(b, nic)
	}
	switch {
	case src == l.rank && !nic:
		// The host's own op completes inline. A pooled reply goes straight
		// back: the completion copies out synchronously, by contract.
		l.completeOp(opID, data)
		if pooled {
			l.free.PutBuf(data)
		}
	case !read:
		l.send(l.newPutAck(src, opID, waited), nic)
	default:
		rep := l.free.Message()
		rep.Kind = kGetRep
		rep.Src = l.rank
		rep.Dst = src
		rep.Wire = 32 + len(data)
		rep.Payload = data
		rep.PayloadPooled = pooled
		rep.Waited = waited
		rep.OpID = opID
		l.send(rep, nic)
	}
}

// apply performs m's effect on blk, the block serve resolved: its bytes
// belong to this locality's execution context, which runs serve, so the
// copies take no store lock. Reads return the reply bytes, in a pooled
// buffer when the request permits one.
func (l *Locality) apply(m *netsim.Message, blk *gas.Block) (data []byte, pooled bool) {
	base, p := m.Target.Offset(), m.Payload
	var err error
	switch m.Kind {
	case kPutReq:
		err = blk.WriteAt(base, p)
	case kPutVec:
		for off := 0; off+segHdr <= len(p) && err == nil; {
			o := binary.LittleEndian.Uint32(p[off:])
			n := int(binary.LittleEndian.Uint32(p[off+4:]))
			off += segHdr
			if n < 0 || off+n > len(p) {
				l.w.fail("rank %d: truncated put-vec fragment for block %d", l.rank, blk.ID)
			}
			err = blk.WriteAt(base+o, p[off:off+n])
			off += n
		}
	case kGetReq:
		data, pooled = l.wireBuf(m.PayloadPooled, int(m.N))
		data = data[:m.N]
		err = blk.ReadAt(base, data)
	case kGetVec:
		data, pooled = l.wireBuf(m.PayloadPooled, int(m.N))
		for off := 0; off+segHdr <= len(p) && err == nil; off += segHdr {
			o := binary.LittleEndian.Uint32(p[off:])
			cur := len(data)
			data = data[:cur+int(binary.LittleEndian.Uint32(p[off+4:]))]
			err = blk.ReadAt(base+o, data[cur:])
		}
	default:
		l.w.fail("rank %d: one-sided op with kind %d", l.rank, m.Kind)
	}
	if err != nil {
		l.w.fail("rank %d: %v", l.rank, err)
	}
	return data, pooled
}

// toMaster re-routes m, which landed on a replica of b, to the block's
// master: in the network from NIC context — no host detour — and as a
// host forward otherwise. For a read that found the copy stale, that
// host correction is exactly the software cost the NIC-routed design
// avoids, and it is counted as one.
func (l *Locality) toMaster(m *netsim.Message, b gas.BlockID, nic bool) {
	master := l.replicaMaster(b, m.Target.Home())
	if nic {
		if !m.Read {
			// residentForNIC hides replicas from writes.
			l.w.fail("rank %d: DMA write to replica of block %d", l.rank, b)
		}
		m.Hops++
		m.Dst = master
		l.w.net.Send(l.rank, m)
		return
	}
	if m.Read {
		l.stats.HostForwards++
		l.note(TraceHostForward, b, uint64(master), m.OpID)
	}
	l.routeToExplicit(m, master)
}

// send emits an owner-side answer or coherence message to m.Dst: from
// NIC context behind the NIC door (it stays in the network), else as a
// host injection (the host serializes it, which is the cost the
// software-managed rows measure).
func (l *Locality) send(m *netsim.Message, nic bool) {
	if nic {
		l.nicInject(m)
		return
	}
	l.inject(m, m.Dst)
}

// newPutAck builds the kPutAck completing opID at src.
func (l *Locality) newPutAck(src int, opID uint64, waited bool) *netsim.Message {
	ack := l.free.Message()
	ack.Kind = kPutAck
	ack.Src = l.rank
	ack.Dst = src
	ack.Wire = 32
	ack.OpID = opID
	ack.Waited = waited
	return ack
}
