package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// network is how a locality's messages reach other localities and how
// the protocol reaches NIC translation state. The simulated fabric and
// the goroutine transport both provide it, so everything above it is
// identical on the two engines; below it both drive the one NIC protocol
// core in package netsim.
type network interface {
	// Send injects m at rank from's NIC (host injection overheads are
	// already charged).
	Send(from int, m *netsim.Message)
	// State runs fn on rank's NIC translation state under the engine's
	// exclusion: the rank's event context on the simulated fabric, the
	// NIC's mutex on the goroutine transport.
	State(rank int, fn func(*netsim.TransState))
	// Defer runs fn on rank's own timeline once the caller's step is
	// done and before time advances (at once where there is no clock).
	Defer(rank int, fn func())
	// Stats snapshots rank's NIC counters.
	Stats(rank int) netsim.NICStats
}

// chanNet is the goroutine engine's driver of the NIC protocol core:
// messages hop between locality actors directly, and it owns only what
// is this engine's — one lock around each NIC's translation state,
// atomically bumped counters, wall-clock fault delays, mailbox hand-off
// and the per-turn flush of each token holder's staged sends (Send).
// Of the per-message counters it keeps the ones something reads — Sent
// and BytesTx (WorldStats.NetSent/NetBytes), DMADelivered — and leaves
// Received, BytesRx and HostDelivered to the simulator: it has no
// receive link or host boundary to model, and each would be one more
// atomic add on every message.
type chanNet struct {
	w     *World
	nics  []*goNIC
	execs []*goExec // per-rank actors, for typed (closure-free) delivery
}

// goNIC is one rank's NIC: the core's configuration plus one translation
// state, as on the DES NIC, behind one mutex. A locality runs one
// handler at a time, so the lock is contended only by the rank's token
// holder, a driver issuing inline (Proc.PutAsync, Proc.await) and rare
// cross-rank writers (Free's sweep, bumpEpoch, rebirth). The state is
// a named field, not embedded, so no TransState method is reachable
// without mu.
type goNIC struct {
	netsim.NICCore
	mu    sync.Mutex
	trans netsim.TransState
	// stats is only ever touched atomically (count, Send, Stats): sender
	// goroutines, the rank's actor and stats readers all meet here.
	stats netsim.NICStats
	// The pad rounds goNIC up to 256 B, whole cache lines, so every NIC
	// gets lines of its own: its mutex and counters are written on every
	// message, and sharing a line with a neighbouring object cost
	// go_parcels about 5 % of its ops/s (EXPERIMENTS.md W6).
	_ [64]byte
}

// ReadRoute and Forward make a goNIC the core's view of its translation
// state (netsim.Routes), one short lock per lookup — never held across
// the core's calls into residency or membership.
func (n *goNIC) ReadRoute(b gas.BlockID) (int, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.trans.ReadRoute(b)
}

func (n *goNIC) Forward(b gas.BlockID) (int, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.trans.Forward(b)
}

func (n *goNIC) updateTable(b gas.BlockID, owner int) {
	n.mu.Lock()
	n.trans.Table.Update(b, owner)
	n.mu.Unlock()
}

// count bumps the counter a verdict names (host deliveries excepted, see
// chanNet).
func (n *goNIC) count(c netsim.Counter) {
	if c != netsim.CntNone && c != netsim.CntHostDelivered {
		atomic.AddUint64(&n.stats[c], 1)
	}
}

func newChanNet(w *World) *chanNet {
	c := &chanNet{w: w}
	for _, l := range w.locs {
		n := &goNIC{
			NICCore: netsim.NICCore{
				Rank: l.rank, GVARouting: w.caps.NICTranslation, Policy: w.cfg.Policy,
				Resident: l.residentForNIC, ResidentRead: l.residentForRead,
			},
			trans: netsim.NewTransState(w.cfg.NICTableCap),
		}
		c.nics = append(c.nics, n)
		ex := l.exec.(*goExec)
		ex.onMsg = func(m *netsim.Message) { c.arrive(l, m) }
		ex.onStep = l.handleMsg
		ex.flush = func(ms []*netsim.Message) { c.send(l.rank, ms) }
		ex.inline = l.payloadPoolable()
		c.execs = append(c.execs, ex)
	}
	return c
}

func (c *chanNet) State(rank int, fn func(*netsim.TransState)) {
	n := c.nics[rank]
	n.mu.Lock()
	defer n.mu.Unlock()
	fn(&n.trans)
}

func (c *chanNet) Stats(rank int) (s netsim.NICStats) {
	live := &c.nics[rank].stats
	for k := range s {
		s[k] = atomic.LoadUint64(&live[k])
	}
	return s
}

// Defer runs fn at once: with no simulated instant to batch within, the
// caller's step is as good a boundary as any.
func (c *chanNet) Defer(_ int, fn func()) { fn() }

// live is the membership view the core fences against: nil until the
// world has ever killed, retired or joined a locality, so unperturbed
// runs pay one atomic load.
func (c *chanNet) live() netsim.Liveness {
	if mem := c.w.mem; mem.active() {
		return mem
	}
	return nil
}

// Send injects m at rank from, staged while an actor's turn holds from's
// token unless it posts at once, after what is staged (pairs keep order).
func (c *chanNet) Send(from int, m *netsim.Message) {
	e := c.execs[from]
	if e.open.Load() && !postsAtOnce(m) {
		e.outMu.Lock()
		e.staged.Add(1)
		if e.open.Load() {
			e.out = append(e.out, m)
			e.outMu.Unlock()
			return
		}
		e.staged.Add(-1)
		e.outMu.Unlock()
	}
	e.flushOut()
	c.send(from, []*netsim.Message{m})
}

// postsAtOnce: waited messages (a blocked caller's round trip) and the
// kinds off-token goroutines send — one-sided requests, batches, a timer's
// pings. Any other off-token send mid-turn leaves with the holder's flush.
func postsAtOnce(m *netsim.Message) bool {
	switch m.Kind {
	case kPutReq, kGetReq, kPutVec, kGetVec, kBatch, kMemberPing:
		return true
	}
	return m.Waited
}

// send carries ms, injected at rank from, in order: one NIC lock resolves
// every ByGVA message, each counter takes one atomic add, and each
// destination mailbox is locked and woken once for its share (postRun).
func (c *chanNet) send(from int, ms []*netsim.Message) {
	n, locked := c.nics[from], false
	for _, m := range ms {
		if !m.Target.IsNull() {
			m.Block = m.Target.Block()
		}
		if m.Dst == netsim.ByGVA {
			if !locked {
				if !n.GVARouting {
					c.w.fail("chanNet: ByGVA send under address space %q", c.w.caps.Name)
				}
				n.mu.Lock()
				locked = true
			}
			n.trans.Resolve(m)
		}
	}
	if locked {
		n.mu.Unlock()
	}
	lv, sent, bytes := c.live(), uint64(0), uint64(0)
	for i := 0; i < len(ms); i++ {
		m := ms[i]
		if m.Dst < 0 || m.Dst >= len(c.nics) {
			c.w.fail("chanNet: send to bad rank %d", m.Dst)
		}
		if v := n.Fence(lv, m); v.Act != netsim.ActPass {
			n.count(v.Count)
			ms[i] = nil
			if v.Act == netsim.ActNack { // the NACK takes m's place
				ms[i], i = n.Control(v.Ctl, m, v.To, 0), i-1
			}
			continue
		}
		sent, bytes = sent+1, bytes+uint64(m.WireSize())
	}
	atomic.AddUint64(&n.stats[netsim.CntSent], sent)
	atomic.AddUint64(&n.stats[netsim.CntBytesTx], bytes)
	fi := c.w.faults
	for i, m := range ms {
		switch {
		case m == nil:
		case fi == nil && m.Waited: // alone: a waited m is never staged
			c.deliver(m, 0)
		case fi == nil:
			c.execs[m.Dst].postRun(ms[i:], m.Dst)
		default:
			if act := fi.Decide(m); !act.Drop {
				if act.Duplicate {
					// Clone: the copies cross receive paths that mutate
					// hop counts and tables, each owned and recycled alone.
					cp := netsim.NewMessage()
					*cp = *m
					c.deliver(cp, act.DupDelay)
				}
				c.deliver(m, act.Delay)
			}
		}
	}
}

// deliver hands m to the destination's typed mailbox — no capturing
// closure on the zero-delay fast path, where a waited m may drain an
// idle destination on this goroutine (goExec.post). Fault-injected delays
// are simulated nanoseconds; goWall converts them to wall clock through
// goTimeScale (the goroutine transport has no simulated
// clock; a scaled wall-clock hold is enough to reorder the message past
// later traffic).
func (c *chanNet) deliver(m *netsim.Message, delay netsim.VTime) {
	ex := c.execs[m.Dst]
	if delay > 0 {
		time.AfterFunc(goWall(delay), func() { ex.execMsg(m) })
		return
	}
	ex.execMsg(m)
}

// arrive runs on the destination's token holder: it asks the core what
// to do with m and does it.
func (c *chanNet) arrive(l *Locality, m *netsim.Message) {
	n := c.nics[l.rank]
	lv := c.live()
	v := n.Classify(lv, m)
	if v.Act != netsim.ActDrop {
		if m.Ctl == netsim.CtlNone && c.w.cfg.Faults.TableLoss > 0 && n.GVARouting {
			// Soft-error model: arrivals may scribble over one evictable
			// table entry.
			n.mu.Lock()
			c.w.faults.MaybeLoseEntry(n.trans.Table)
			n.mu.Unlock()
		}
		if v.Act == netsim.ActMisroute {
			v = n.Misroute(n, lv, m)
		}
	}
	n.count(v.Count)
	switch v.Act {
	case netsim.ActApplyTable:
		// The table trusts the membership epoch (World.bumpEpoch).
		if netsim.ApplyTable(m, c.w.mem.Epoch(), n.updateTable) {
			n.count(netsim.CntStaleEpochDrops)
		}
		m.Release() // consumed by the NIC; never reaches the host
	case netsim.ActDeliverHost:
		l.onHostMsg(m)
	case netsim.ActDeliverDMA:
		l.onDMA(m)
	case netsim.ActNack:
		c.Send(l.rank, n.Control(v.Ctl, m, v.To, 0))
	case netsim.ActForward:
		l.note(TraceNICForward, m.Block, uint64(int64(v.To)), m.OpID)
		if v.Push {
			c.Send(l.rank, n.Control(netsim.CtlTableUpdate, m, v.To, c.w.mem.Epoch()))
		}
		// Forward in place: the arrived message is the forwarded one.
		m.Dst = v.To
		c.Send(l.rank, m)
	case netsim.ActScatter:
		fwd, host, split := n.SplitScatter(n, m)
		if split {
			n.count(netsim.CntScatterSplits)
		}
		for _, f := range fwd {
			n.count(netsim.CntScatterForwards)
			c.Send(l.rank, f)
		}
		if host {
			l.onHostMsg(m)
		} else {
			m.Release() // every record moved on; the envelope is spent
		}
	}
}
