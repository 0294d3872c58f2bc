package netsim

import "fmt"

// Port is one engine's side of one NIC. The driver — what a NIC does with
// a message it sends or receives, in what order, and what it counts — is
// written once over it (Address, Gate, Inject, Receive, ApplyTable): a port
// says only what a step costs and when it runs, and the driver counts on
// the core's Stats. The simulated NIC schedules typed events at the
// model's charges; the goroutine transport runs every step at once, its
// only wall-clock delay an injected fault's.
//
// A port's translation state and counters have one writer: the simulated
// NIC's rank's events, the goroutine rank's token holder. Every driver
// step runs there, so none takes a lock or an atomic.
type Port interface {
	// Trans returns the NIC's translation state: the receive-side
	// decisions read its routes (a concrete type, so no interface
	// conversion runs per message), and table pushes are checked against,
	// and stamped with, the membership epoch its table trusts.
	Trans() *TransState
	// Transmit sends m, which this NIC addressed itself (a forward, a
	// NACK, a table push, a scatter share), at the NIC's forwarding cost.
	Transmit(m *Message)
	// Later runs the core's ApplyTable(p, m) once the table write's cost
	// has elapsed.
	Later(m *Message)
	// DeliverHost hands m to the host; DeliverDMA copies it against
	// resident host memory, at the copy's cost.
	DeliverHost(m *Message)
	DeliverDMA(m *Message)
}

// Address readies m for the send gate: it fills m.Block from a GVA target
// and reports whether m needs source translation (Resolve). A ByGVA send
// on a NIC that does not route by GVA keeps its Dst, and the gate
// refuses it.
func (c *NICCore) Address(m *Message) (gva bool) {
	if !m.Target.IsNull() {
		m.Block = m.Target.Block()
	}
	return m.Dst == ByGVA && c.GVARouting
}

// Gate is the send gate m passes on its way to one of ranks NICs: the
// liveness fence against c.Live, the counter its verdict names, and the
// NACK that takes m's place, fenced in turn; what passes is counted sent.
// It returns m, that NACK, or nil, or an error for a destination that is
// no rank; the port decides how to fail on it.
func (c *NICCore) Gate(p Port, m *Message, ranks int) (*Message, error) {
	for {
		if m.Dst == ByGVA {
			return nil, fmt.Errorf("netsim: ByGVA send from rank %d, whose NIC does not route by GVA", c.Rank)
		}
		if m.Dst < 0 || m.Dst >= ranks {
			return nil, fmt.Errorf("netsim: send to bad rank %d", m.Dst)
		}
		v := c.Fence(c.Live, m)
		if v.Act == ActPass {
			c.Stats[CntSent]++
			c.Stats[CntBytesTx] += uint64(m.WireSize())
			return m, nil
		}
		c.Stats[v.Count]++
		if v.Act != ActNack {
			return nil, nil
		}
		m = c.Control(v.Ctl, m, v.To, 0)
	}
}

// Inject passes m, due at m.Dst's NIC at `at`, through the fault stream
// (nil passes everything) and lands what survives: a duplicate lands an
// independently owned clone too, taken from rc, a delay lands m later.
func (fi *FaultInjector) Inject(rc *Recycler, m *Message, at VTime, land func(*Message, VTime)) {
	if fi != nil {
		act := fi.Decide(m)
		if act.Drop {
			return
		}
		if act.Duplicate {
			cp := rc.Message()
			*cp = *m
			land(cp, at+act.DupDelay)
		}
		at += act.Delay
	}
	land(m, at)
}

// Receive handles a wire arrival: Classify (against c.Live), the
// soft-error draw on the table, Misroute, the arrival's and the verdict's
// counters, then the verdict acted out on the port. arrived reports
// whether m came off the link rather than vanishing at a down one.
func (c *NICCore) Receive(p Port, fi *FaultInjector, m *Message) (arrived bool) {
	v := c.Classify(c.Live, m)
	if arrived = v.Act != ActDrop; arrived {
		c.Stats[CntReceived]++
		c.Stats[CntBytesRx] += uint64(m.WireSize())
		if m.Ctl == CtlNone && c.GVARouting && fi != nil {
			// Soft-error model: traffic may scribble over one cached entry;
			// authoritative routes are assumed protected (ECC directory).
			fi.MaybeLoseEntry(p.Trans().Table)
		}
		if v.Act == ActMisroute {
			v = c.Misroute(p.Trans(), c.Live, m)
		}
	}
	if v.Count != CntNone {
		c.Stats[v.Count]++
	}
	switch v.Act {
	case ActApplyTable:
		p.Later(m)
	case ActDeliverHost:
		p.DeliverHost(m)
	case ActDeliverDMA:
		p.DeliverDMA(m)
	case ActNack:
		p.Transmit(c.Control(v.Ctl, m, v.To, 0))
	case ActForward:
		if c.OnForward != nil {
			c.OnForward(m, v.To)
		}
		if v.Push {
			p.Transmit(c.Control(CtlTableUpdate, m, v.To, p.Trans().Table.Epoch()))
		}
		// Forward in place: the arrived message is the forwarded one, and
		// the transport stays its sole owner.
		m.Dst = v.To
		p.Transmit(m)
	case ActScatter:
		fwd, host, split := c.SplitScatter(p.Trans(), m)
		if split {
			c.Stats[CntScatterSplits]++
		}
		for _, f := range fwd {
			c.Stats[CntScatterForwards]++
			p.Transmit(f)
		}
		if host {
			c.Stats[CntHostDelivered]++
			p.DeliverHost(m)
		} else {
			c.Free.Release(m) // every record moved on; the envelope is spent
		}
	}
	return arrived
}

// ApplyTable consumes a table push on the NIC: a CtlTableUpdate, or a
// CtlTableBatch that installs a whole migration burst after one
// table-write charge. A push stamped with an older membership epoch than
// the table trusts is counted and ignored: it was in flight across a
// membership change and could resurrect a route to a dead or re-homed
// locality.
func (c *NICCore) ApplyTable(p Port, m *Message) {
	t := p.Trans().Table
	switch {
	case m.Epoch < t.Epoch():
		c.Stats[CntStaleEpochDrops]++
	case m.Ctl == CtlTableBatch:
		ForEachTableEntry(m.Payload, t.Update)
	default:
		t.Update(m.Block, m.Owner)
	}
	c.Free.Release(m) // never reaches the host
}
