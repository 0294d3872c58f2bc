package netsim

// NIC is one locality's simulated NIC, the simulator's Port: it owns
// tx/rx link occupancy, serialization, wire latency and the fault stream,
// and charges each driver step at the model's NIC costs as a typed event.
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

	fab *Fabric
	// eng schedules this rank's events: the fabric engine in classic mode,
	// the rank's shard engine under sharding. All NIC state is touched only
	// from this rank's event context, which makes window-parallel execution
	// race-free and lets the core's counters be plain integers.
	eng *Engine
	// fi is this NIC's fault stream: the fabric-shared injector in
	// classic mode, a per-rank fork under sharding.
	fi     *FaultInjector
	txFree VTime
	rxFree VTime
}

// Send injects a message. The caller has already paid host injection
// overhead and set m.Src (forwarded and re-sent messages keep their
// original source so completions and table updates reach the right
// place); this charges NIC-side costs: source translation (when routing
// by GVA), transmit occupancy, serialization, and wire latency.
func (n *NIC) Send(m *Message) {
	cost := VTime(0)
	if n.Address(m) {
		cost = n.fab.Model.NICLookup
		n.Resolve(m)
	}
	n.transmit(m, cost)
}

// transmit passes m through the send gate, charges tx occupancy (scaled
// by the path's bandwidth taper) and schedules wire arrival at the
// destination NIC through the fault stream; the receiving rx link then
// serializes the bytes, which is what makes incast visible.
func (n *NIC) transmit(m *Message, extra VTime) {
	g, err := n.Gate(n, n.fab.Live, m, len(n.fab.NICs))
	if err != nil {
		panic(err)
	}
	if g == nil {
		return
	}
	eng, model := n.eng, &n.fab.Model
	if g != m { // the NACK that took m's place leaves at forwarding cost
		m, extra = g, model.NICForward
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
	n.fi.Inject(n.Free, m, n.txFree+model.Latency*VTime(hops), n.scheduleArrival)
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
		if ready != now {
			n.eng.AtRankMsg(n.Rank, ready, n, opRxReady, m)
			return
		}
		fallthrough
	case opRxReady:
		n.Receive(n, n.fab.Live, n.fi, m)
	case opTableApply:
		n.ApplyTable(n, m)
	case opDMADone:
		n.DMADeliver(m)
	}
}

// The NIC's side of the driver (Port); ReadRoute, Forward and Cache are
// its TransState's.

func (n *NIC) Transmit(m *Message)    { n.transmit(m, n.fab.Model.NICForward) }
func (n *NIC) DeliverHost(m *Message) { n.HostDeliver(m) }

func (n *NIC) Later(m *Message) {
	n.eng.AtRankMsg(n.Rank, n.eng.Now()+n.fab.Model.NICUpdate, n, opTableApply, m)
}

func (n *NIC) DeliverDMA(m *Message) {
	n.eng.AtRankMsg(n.Rank, n.eng.Now()+n.fab.Model.CopyTime(m.Wire), n, opDMADone, m)
}
