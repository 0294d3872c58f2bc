package runtime

import (
	"sync/atomic"
	"time"

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
	// State runs fn on rank's NIC translation state at once. The caller
	// is the state's one writer: the rank's event context on the
	// simulated fabric, its token holder on the goroutine transport (a
	// driver claims the rank, another rank's holder posts: World.claimNIC,
	// World.postNIC).
	State(rank int, fn func(*netsim.TransState))
	// Defer runs fn on rank's own timeline once the caller's step is
	// done and before time advances (at once where there is no clock).
	Defer(rank int, fn func())
	// Stats snapshots rank's NIC counters.
	Stats(rank int) netsim.NICStats
}

// chanNet is the goroutine engine's transport: messages hop between
// locality actors directly, through one goNIC per rank. It owns the
// batched send path, the per-turn flush of each token holder's staged
// sends (Send), wall-clock fault delays, and mailbox hand-off.
type chanNet struct {
	w     *World
	nics  []*goNIC
	execs []*goExec // per-rank actors, for typed (closure-free) delivery
}

// goNIC is one rank's NIC, the goroutine engine's netsim.Port: every
// step runs at once on the goroutine that reached it. Its translation
// state has one writer, the rank's token holder, so it takes no lock:
// sends are flushed, arrivals received and table pushes applied on the
// token, and a write from elsewhere is claimed or posted to it
// (World.claimNIC, World.postNIC). It fills three whole cache lines, so
// no two NICs share one (TestGoNICFillsWholeCacheLines; EXPERIMENTS.md W6).
type goNIC struct {
	// stats is only ever touched atomically (Count, Stats): sender
	// goroutines, the rank's actor and stats readers all meet here. It
	// comes first, so the counters fill two cache lines of their own.
	stats netsim.NICStats
	netsim.NICCore
	netsim.TransState
	l *Locality
	c *chanNet
}

func (n *goNIC) Transmit(m *netsim.Message)    { n.c.Send(n.Rank, m) }
func (n *goNIC) Later(m *netsim.Message)       { netsim.ApplyTable(n, m) }
func (n *goNIC) DeliverHost(m *netsim.Message) { n.l.onHostMsg(m) }
func (n *goNIC) DeliverDMA(m *netsim.Message)  { n.l.onDMA(m) }

// Count declines HostDelivered: there is no host boundary to model, and
// an atomic add per arrival cost go_rma 13 % of its ops/s in paired runs.
func (n *goNIC) Count(c netsim.Counter, d uint64) {
	if c != netsim.CntHostDelivered {
		atomic.AddUint64(&n.stats[c], d)
	}
}

func newChanNet(w *World) *chanNet {
	c := &chanNet{w: w}
	for _, l := range w.locs {
		n := &goNIC{
			NICCore:    netsim.NICCore{Rank: l.rank, GVARouting: w.caps.NICTranslation, Policy: w.cfg.Policy},
			TransState: netsim.NewTransState(w.cfg.NICTableCap),
			l:          l,
			c:          c,
		}
		l.wireNIC(&n.NICCore)
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

func (c *chanNet) State(rank int, fn func(*netsim.TransState)) { fn(&c.nics[rank].TransState) }

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

// Send injects m at rank from. Every sender holds from's token, except
// the probe's pings: unordered control traffic, they leave at once and
// never touch the outbox. While an actor's turn runs the rank's sends are
// staged; a waited m flushes what is staged and leaves at once, so pairs
// keep their order.
func (c *chanNet) Send(from int, m *netsim.Message) {
	if e := c.execs[from]; m.Kind != kMemberPing && e.open {
		if !m.Waited {
			e.out = append(e.out, m)
			return
		}
		e.flushOut()
	}
	c.send(from, []*netsim.Message{m})
}

// send carries ms, injected at rank from, in order, on from's token:
// each message is resolved (if ByGVA) and gated in one pass, each
// counter takes one atomic add, and each destination mailbox is locked
// and woken once for its share (postRun).
func (c *chanNet) send(from int, ms []*netsim.Message) {
	n := c.nics[from]
	lv, sent, bytes := c.w.mem.view(), uint64(0), uint64(0)
	for i, m := range ms {
		if n.Address(m) {
			n.Resolve(m)
		}
		g, err := n.Gate(n, lv, m, len(c.nics))
		if err != nil {
			c.w.fail("chanNet: %v", err)
		}
		if ms[i] = g; g != nil {
			sent, bytes = sent+1, bytes+uint64(g.WireSize())
		}
	}
	n.Count(netsim.CntSent, sent)
	n.Count(netsim.CntBytesTx, bytes)
	fi := c.w.faults
	for i, m := range ms {
		switch {
		case m == nil:
		case fi == nil && m.Waited: // alone: a waited m is never staged
			c.deliver(m, 0)
		case fi == nil:
			c.execs[m.Dst].postRun(ms[i:], m.Dst)
		default:
			fi.Inject(m, 0, c.deliver)
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

// arrive runs the NIC driver's receive on the destination's token holder.
func (c *chanNet) arrive(l *Locality, m *netsim.Message) {
	n := c.nics[l.rank]
	n.Receive(n, c.w.mem.view(), c.w.faults, m)
}
