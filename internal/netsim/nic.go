package netsim

import "fmt"

// NIC is the simulator's driver of the protocol core for one locality:
// it owns what is the simulator's — tx/rx link occupancy, serialization
// and wire latency, fault scheduling — and turns the core's verdicts
// into typed events charged with the model's NIC costs. The decisions
// themselves (NICCore) and the translation state they read (TransState)
// are shared with the goroutine transport.
type NIC struct {
	NICCore
	TransState

	// HostDeliver hands a message to the host runtime (two-sided
	// delivery, DMA faults, NACKs). The runtime charges its own host
	// receive overheads.
	HostDeliver func(*Message)
	// DMADeliver performs a one-sided transfer against host memory at
	// NIC cost. Only called when the block is resident.
	DMADeliver func(*Message)
	// OnForward, when set, observes in-network redirects (m about to be
	// rewritten to owner) at zero simulated cost — a tracing hook, not a
	// participant.
	OnForward func(m *Message, owner int)

	fab *Fabric
	// eng is the engine face that schedules this rank's events: the
	// fabric engine itself in classic mode, the rank's shard engine under
	// sharding. All NIC state (txFree/rxFree/TransState/Stats) is touched
	// only from this rank's event context, which is what makes
	// window-parallel execution race-free and lets the counters be plain
	// integers.
	eng *Engine
	// fi is this NIC's fault stream: the fabric-shared injector in
	// classic mode, a per-rank fork under sharding.
	fi     *FaultInjector
	txFree VTime
	rxFree VTime
	Stats  NICStats
}

// count bumps the counter a verdict names.
func (n *NIC) count(c Counter) {
	if c != CntNone {
		n.Stats[c]++
	}
}

// Send injects a message. The caller has already paid host injection
// overhead and set m.Src (forwarded and re-sent messages keep their
// original source so completions and table updates reach the right
// place); this charges NIC-side costs: source translation (when routing
// by GVA), transmit occupancy, serialization, and wire latency.
func (n *NIC) Send(m *Message) {
	if !m.Target.IsNull() {
		m.Block = m.Target.Block()
	}
	cost := VTime(0)
	if m.Dst == ByGVA {
		if !n.GVARouting {
			panic("netsim: ByGVA send on a NIC without GVA routing")
		}
		cost = n.fab.Model.NICLookup
		n.Resolve(m)
	}
	n.transmit(m, cost)
}

// transmit charges tx occupancy (scaled by the path's bandwidth taper)
// and schedules wire arrival at the destination NIC; the receiving NIC's
// rx link then serializes the bytes before handing the message up, which
// is what makes incast visible.
func (n *NIC) transmit(m *Message, extra VTime) {
	if m.Dst < 0 || m.Dst >= len(n.fab.NICs) {
		panic(fmt.Sprintf("netsim: transmit to bad rank %d", m.Dst))
	}
	eng, model := n.eng, &n.fab.Model
	if v := n.Fence(n.fab.Live, m); v.Act != ActPass {
		n.count(v.Count)
		if v.Act == ActNack {
			n.transmit(n.Control(v.Ctl, m, v.To, 0), model.NICForward)
		}
		return
	}
	wire := m.WireSize()
	hops := 1
	bw := 1.0
	if m.Dst != n.Rank {
		hops = n.fab.Topo.Hops(n.Rank, m.Dst)
		bw = n.fab.Topo.BWFactor(n.Rank, m.Dst)
	}
	m.rxSer = VTime(float64(wire) * model.GByte * bw)
	ser := model.Gap + m.rxSer
	start := eng.Now() + extra
	if n.txFree > start {
		start = n.txFree
	}
	n.txFree = start + ser
	n.Stats[CntSent]++
	n.Stats[CntBytesTx] += uint64(wire)
	arrive := n.txFree + model.Latency*VTime(hops)
	if fi := n.fi; fi != nil {
		act := fi.Decide(m)
		if act.Drop {
			return
		}
		if act.Duplicate {
			// The clone is independently owned: both copies cross receive
			// paths that mutate, forward and release them.
			cp := NewMessage()
			*cp = *m
			n.scheduleArrival(cp, arrive+act.DupDelay)
		}
		arrive += act.Delay
	}
	n.scheduleArrival(m, arrive)
}

// The NIC's typed event steps (Engine.AtRankMsg): the message in flight
// is the scheduled unit, so the per-message path builds no closures.
const (
	opArrive     uint8 = iota // wire arrival: charge rx-link occupancy
	opRxReady                 // rx link drained: receive
	opTableApply              // NICUpdate elapsed: apply a table push
	opDMADone                 // DMA copy elapsed: hand to the DMA handler
)

// scheduleArrival lands m on the destination NIC at the given time. The
// arrival is the destination rank's event: it runs on dst's shard and
// touches only dst's state. Under sharding a cross-shard arrival rides
// the inbox and cannot land inside the current window — the wire latency
// already paid by transmit is exactly the lookahead bound.
func (n *NIC) scheduleArrival(m *Message, arrive VTime) {
	n.eng.AtRankMsg(m.Dst, arrive, n.fab.NICs[m.Dst], opArrive, m)
}

// HandleMsg runs one typed event step on this NIC.
func (n *NIC) HandleMsg(op uint8, m *Message) {
	switch op {
	case opArrive:
		// rx-link occupancy: an isolated arrival delivers immediately (its
		// serialization was already paid at the sender), but the receive
		// link drains at link rate, so concurrent senders to one NIC
		// (incast) queue behind each other.
		now := n.eng.Now()
		ready := now
		if n.rxFree > ready {
			ready = n.rxFree
		}
		n.rxFree = ready + m.rxSer
		if ready == now {
			n.receive(m)
			return
		}
		n.eng.AtRankMsg(n.Rank, ready, n, opRxReady, m)
	case opRxReady:
		n.receive(m)
	case opTableApply:
		if ApplyTable(m, n.Table.Epoch(), n.Table.Update) {
			n.Stats[CntStaleEpochDrops]++
		}
		m.Release() // consumed by the NIC; never reaches the host
	case opDMADone:
		if n.DMADeliver == nil {
			panic(fmt.Sprintf("netsim: DMA delivery on rank %d without a DMA handler", n.Rank))
		}
		n.DMADeliver(m)
	}
}

// receive handles wire arrival: it asks the core what to do with m and
// schedules that at the model's cost.
func (n *NIC) receive(m *Message) {
	lv, model := n.fab.Live, &n.fab.Model
	v := n.Classify(lv, m)
	if v.Act != ActDrop {
		n.Stats[CntReceived]++
		n.Stats[CntBytesRx] += uint64(m.WireSize())
		if m.Ctl == CtlNone && n.fi != nil && n.GVARouting {
			// Soft-error model: receiving traffic may scribble over one
			// translation-table entry. Only the LRU cache is vulnerable;
			// authoritative routes are assumed protected (ECC directory).
			n.fi.MaybeLoseEntry(n.Table)
		}
		if v.Act == ActMisroute {
			v = n.Misroute(&n.TransState, lv, m)
		}
	}
	n.count(v.Count)
	switch v.Act {
	case ActApplyTable:
		// A batch installs a whole migration burst in one deferred event
		// after a single NICUpdate charge: the table write port is the
		// bottleneck once, not per block.
		n.eng.AtRankMsg(n.Rank, n.eng.Now()+model.NICUpdate, n, opTableApply, m)
	case ActDeliverHost:
		n.deliverHost(m)
	case ActDeliverDMA:
		n.eng.AtRankMsg(n.Rank, n.eng.Now()+model.CopyTime(m.Wire), n, opDMADone, m)
	case ActNack:
		n.transmit(n.Control(v.Ctl, m, v.To, 0), model.NICForward)
	case ActForward:
		if n.OnForward != nil {
			n.OnForward(m, v.To)
		}
		if v.Push {
			n.transmit(n.Control(CtlTableUpdate, m, v.To, n.Table.Epoch()), model.NICForward)
		}
		// Forward in place: the arrived message is the forwarded one, and
		// the fabric stays its sole owner.
		m.Dst = v.To
		n.transmit(m, model.NICForward)
	case ActScatter:
		fwd, host, split := n.SplitScatter(&n.TransState, m)
		if split {
			n.Stats[CntScatterSplits]++
		}
		for _, f := range fwd {
			n.Stats[CntScatterForwards]++
			n.transmit(f, model.NICForward)
		}
		if host {
			n.Stats[CntHostDelivered]++
			n.deliverHost(m)
		} else {
			m.Release() // every record moved on; the envelope is spent
		}
	}
}

func (n *NIC) deliverHost(m *Message) {
	if n.HostDeliver == nil {
		panic(fmt.Sprintf("netsim: host delivery on rank %d without a handler", n.Rank))
	}
	n.HostDeliver(m)
}
