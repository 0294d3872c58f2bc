package runtime

import (
	"encoding/binary"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// Vectored one-sided operations: one request carries many fragments of a
// single block and costs one completion, so a scatter write (or gather
// read) pays the per-message overheads once instead of per fragment. The
// request payload is assembled straight into a (pooled, when the world
// allows it) wire buffer — fragments are copied exactly once, at encode.
//
// Wire formats:
//
//	kPutVec payload: [u32 off][u32 len][len bytes] repeated
//	kGetVec payload: [u32 off][u32 len] repeated; the kGetRep reply is
//	the fragments concatenated in request order
//
// Offsets are relative to the request's target GVA.

// PutSeg is one fragment of a vectored put.
type PutSeg struct {
	Off  uint32
	Data []byte
}

// GetSeg is one fragment of a vectored get.
type GetSeg struct {
	Off, N uint32
}

const putSegHdr = 8
const getSegRec = 8

// PutVecAsync writes all segs into the block at dst with one request and
// one ack; done runs on this locality at remote completion. All offsets
// must fall inside dst's block.
func (l *Locality) PutVecAsync(dst gas.GVA, segs []PutSeg, done func()) {
	total := 0
	for i := range segs {
		total += len(segs[i].Data)
	}
	l.Stats.PutOps.Inc()
	l.Stats.PutBytes.Add(int64(total))
	id := l.newPutOp(done)
	need := len(segs)*putSegHdr + total
	var buf []byte
	pooled := false
	if l.payloadPoolable() {
		buf, pooled = getWireBuf(need)
	} else {
		buf = make([]byte, 0, need)
	}
	for i := range segs {
		s := &segs[i]
		buf = binary.LittleEndian.AppendUint32(buf, s.Off)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Data)))
		buf = append(buf, s.Data...)
	}
	m := netsim.NewMessage()
	m.Kind = kPutVec
	m.Src = l.rank
	m.Target = dst
	m.DMA = true
	m.Payload = buf
	m.PayloadPooled = pooled
	m.Wire = 32 + len(buf)
	m.OpID = id
	l.routeMsg(m)
}

// GetVecAsync reads all segs from the block at src with one request and
// one reply; done runs with the fragments concatenated in order. done
// may retain the data.
func (l *Locality) GetVecAsync(src gas.GVA, segs []GetSeg, done func(data []byte)) {
	l.getVecAsync(src, segs, false, done)
}

// getVecAsync is GetVecAsync plus the pooled-reply option: with pooledOK
// the request (and so the reply) may ride pooled wire buffers, which
// requires done to copy the data out before returning.
func (l *Locality) getVecAsync(src gas.GVA, segs []GetSeg, pooledOK bool, done func(data []byte)) {
	total := uint32(0)
	for i := range segs {
		total += segs[i].N
	}
	l.Stats.GetOps.Inc()
	l.Stats.GetBytes.Add(int64(total))
	id := l.newGetOp(done)
	need := len(segs) * getSegRec
	var buf []byte
	pooled := false
	if pooledOK && l.payloadPoolable() {
		buf, pooled = getWireBuf(need)
	} else {
		buf = make([]byte, 0, need)
	}
	for i := range segs {
		buf = binary.LittleEndian.AppendUint32(buf, segs[i].Off)
		buf = binary.LittleEndian.AppendUint32(buf, segs[i].N)
	}
	m := netsim.NewMessage()
	m.Kind = kGetVec
	m.Src = l.rank
	m.Target = src
	m.DMA = true
	m.Payload = buf
	m.PayloadPooled = pooled
	m.Wire = 32 + len(buf)
	m.N = total
	m.OpID = id
	l.routeMsg(m)
}

// applyPutVec writes a kPutVec payload's fragments into block b.
func (l *Locality) applyPutVec(b gas.BlockID, m *netsim.Message) {
	base := m.Target.Offset()
	p := m.Payload
	for off := 0; off+putSegHdr <= len(p); {
		o := binary.LittleEndian.Uint32(p[off:])
		n := int(binary.LittleEndian.Uint32(p[off+4:]))
		off += putSegHdr
		if n < 0 || off+n > len(p) {
			l.w.fail("rank %d: truncated put-vec fragment for block %d", l.rank, b)
		}
		if err := l.store.WriteAt(b, base+o, p[off:off+n]); err != nil {
			l.w.fail("rank %d: %v", l.rank, err)
		}
		off += n
	}
}

// buildGetVecReply gathers a kGetVec request's fragments out of block b
// into one reply buffer, pooled when the request allows it.
func (l *Locality) buildGetVecReply(b gas.BlockID, m *netsim.Message) (data []byte, pooled bool) {
	total := 0
	p := m.Payload
	for off := 0; off+getSegRec <= len(p); off += getSegRec {
		total += int(binary.LittleEndian.Uint32(p[off+4:]))
	}
	if m.PayloadPooled {
		data, pooled = getWireBuf(total)
	} else {
		data = make([]byte, 0, total)
	}
	base := m.Target.Offset()
	for off := 0; off+getSegRec <= len(p); off += getSegRec {
		o := binary.LittleEndian.Uint32(p[off:])
		n := int(binary.LittleEndian.Uint32(p[off+4:]))
		cur := len(data)
		data = data[:cur+n]
		if err := l.store.ReadAt(b, base+o, data[cur:]); err != nil {
			l.w.fail("rank %d: %v", l.rank, err)
		}
	}
	return data, pooled
}

// hostPutVec is the host-side kPutVec path (local fast path, dumb-NIC
// modes, migration queueing and stale repair), mirroring hostPut.
func (l *Locality) hostPutVec(m *netsim.Message) {
	b := m.Target.Block()
	if l.queueIfMoving(b, m) {
		return
	}
	blk, ok := l.store.Get(b)
	if !ok {
		l.space.OnStaleDelivery(m, nil)
		return
	}
	if blk.Kind != gas.KindData {
		l.w.fail("rank %d: put to non-data block %d", l.rank, b)
	}
	if blk.Replica {
		// Writes never land on replicas: chase the master.
		l.routeToExplicit(m, l.replicaMaster(b, m.Target.Home()))
		return
	}
	if !l.relAccept(m) {
		m.Release()
		return
	}
	l.w.noteAccess(l.rank, m.Src, b, false)
	l.exec.Charge(l.w.cfg.Model.CopyTime(len(m.Payload)))
	l.applyPutVec(b, m)
	opID, src := m.OpID, m.Src
	l.releasePayload(m)
	m.Release()
	l.replFanOut(b, false)
	if src == l.rank {
		l.completeOp(opID, nil)
		return
	}
	l.putAck(src, opID, false)
}

// hostGetVec is the host-side kGetVec path, mirroring hostGet.
func (l *Locality) hostGetVec(m *netsim.Message) {
	b := m.Target.Block()
	if l.queueIfMoving(b, m) {
		return
	}
	blk, ok := l.store.Get(b)
	if !ok {
		l.space.OnStaleDelivery(m, nil)
		return
	}
	if blk.Kind != gas.KindData {
		l.w.fail("rank %d: get from non-data block %d", l.rank, b)
	}
	if blk.Replica {
		if fresh, _ := l.replicaFresh(b); !fresh {
			l.Stats.ReplicaStaleReads.Inc()
			l.Stats.HostForwards.Inc()
			l.traceOp(TraceHostForward, b, uint64(l.replicaMaster(b, m.Target.Home())), m.OpID)
			l.routeToExplicit(m, l.replicaMaster(b, m.Target.Home()))
			return
		}
		l.Stats.ReplicaReads.Inc()
	}
	if !l.relAccept(m) {
		m.Release()
		return
	}
	l.w.noteAccess(l.rank, m.Src, b, true)
	l.exec.Charge(l.w.cfg.Model.CopyTime(int(m.N)))
	data, pooled := l.buildGetVecReply(b, m)
	opID, src := m.OpID, m.Src
	l.releasePayload(m)
	m.Release()
	if src == l.rank {
		// The completion copies out synchronously (the pooled-reply
		// contract), so the buffer can go straight back.
		l.completeOp(opID, data)
		if pooled {
			putWireBuf(data)
		}
		return
	}
	rep := netsim.NewMessage()
	rep.Kind = kGetRep
	rep.Src = l.rank
	rep.Dst = src
	rep.Wire = 32 + len(data)
	rep.Payload = data
	rep.PayloadPooled = pooled
	rep.OpID = opID
	l.inject(rep, rep.Dst)
}

// coalesceAcks reports whether put acks ride the per-drain vector
// (flushAcks): the goroutine engine (whose mailbox drain is what flushes
// the vector) with neither reliability nor fault injection — a dropped or
// tracked ack-vector would need per-op retransmit state the vector cannot
// carry.
func (l *Locality) coalesceAcks() bool { return l.w.eng == nil && l.payloadPoolable() }

// putAck delivers a put completion to src. When coalescing, the OpID
// joins src's pending vector, flushed at mailbox drain; otherwise one
// kPutAck goes out immediately — from NIC context when fromNIC is set
// (the DMA path), else charged as a host injection.
func (l *Locality) putAck(src int, opID uint64, fromNIC bool) {
	if l.coalesceAcks() {
		ids, ok := l.ackPend[src]
		if !ok {
			if l.ackPend == nil {
				l.ackPend = make(map[int][]uint64)
			}
			l.ackSrcs = append(l.ackSrcs, src)
		}
		l.ackPend[src] = append(ids, opID)
		return
	}
	ack := netsim.NewMessage()
	ack.Kind = kPutAck
	ack.Src = l.rank
	ack.Dst = src
	ack.Wire = 32
	ack.OpID = opID
	if fromNIC {
		l.nicInject(ack)
		return
	}
	l.inject(ack, src)
}

// flushAcks emits the coalesced put acks accumulated during the current
// mailbox drain: one message per requester, carrying every completed
// OpID. Runs on the locality actor (goExec.onDrain), so it touches
// ackPend without locks and always runs before the actor can block on an
// empty mailbox — no completion is ever stranded in the pending state.
func (l *Locality) flushAcks() {
	if len(l.ackSrcs) == 0 {
		return
	}
	for _, src := range l.ackSrcs {
		ids := l.ackPend[src]
		delete(l.ackPend, src)
		if len(ids) == 1 {
			ack := netsim.NewMessage()
			ack.Kind = kPutAck
			ack.Src = l.rank
			ack.Dst = src
			ack.Wire = 32
			ack.OpID = ids[0]
			l.nicInject(ack)
			continue
		}
		buf, pooled := getWireBuf(8 * len(ids))
		for _, id := range ids {
			buf = binary.LittleEndian.AppendUint64(buf, id)
		}
		ack := netsim.NewMessage()
		ack.Kind = kPutAckVec
		ack.Src = l.rank
		ack.Dst = src
		ack.Payload = buf
		ack.PayloadPooled = pooled
		ack.Wire = 32 + len(buf)
		l.nicInject(ack)
	}
	l.ackSrcs = l.ackSrcs[:0]
}

// onPutAckVec completes every op named in a kPutAckVec payload.
func (l *Locality) onPutAckVec(m *netsim.Message) {
	p := m.Payload
	for off := 0; off+8 <= len(p); off += 8 {
		l.completeOp(binary.LittleEndian.Uint64(p[off:]), nil)
	}
	l.releasePayload(m)
	m.Release()
}
