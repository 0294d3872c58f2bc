package runtime

import (
	"fmt"
	"io"
	"sync"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/lco"
	"nmvgas/internal/netsim"
)

// network is the world's one engine port, chosen once by NewWorld: the
// transport that carries a locality's messages and reaches NIC
// translation state, and the world's clock, timers and driver waits. The
// simulated fabric (desNet) and the goroutine transport (chanNet) provide
// it, and both drive the one NIC protocol core in package netsim. A
// rank's own clocks and scheduling are its Executor's.
type network interface {
	// Send injects m at rank from's NIC (host overheads already charged).
	Send(from int, m *netsim.Message)
	// State runs fn on rank's NIC translation state at once. The caller
	// is the state's one writer: the rank's event context on DES, its
	// token holder on the goroutine engine (World.claim, World.post).
	State(rank int, fn func(*netsim.TransState))
	// Defer runs fn on rank's own timeline once the caller's step is
	// done and before time advances (at once where there is no clock).
	Defer(rank int, fn func())
	// Stats copies rank's NIC counters; like State, the caller is their
	// one writer (World.claim).
	Stats(rank int) netsim.NICStats

	// The engine half. stop runs once the world timers are off; now is
	// World.Now and latNow the latency clock (ns), both in driver or
	// barrier context; after runs fn d from now in world context (fn must
	// not call Stop); wait is World.Wait; await runs the world until cond
	// holds or gives up, and reports cond. quiet reports that nothing but
	// the caller is scheduled, so the pulse parks. queueDepthsInto is the
	// on-demand backlog tap: mailbox depth on the goroutine engine,
	// rank-attributed pending events on DES. hops is the fabric
	// distance between two distinct ranks; fabric is nil on an engine
	// without a simulated one.
	start()
	stop()
	now() netsim.VTime
	latNow() int64
	after(d netsim.VTime, fn func())
	wait(obj lco.LCO, g gas.GVA) ([]byte, error)
	await(cond func() bool, timeout time.Duration) bool
	quiet() bool
	queueDepthsInto(counts []int)
	dump(out io.Writer)
	hops(a, b int) int
	faultStats() netsim.FaultStats
	fabric() *netsim.Fabric
}

// chanNet is the goroutine engine's port: messages hop between locality
// actors directly, through one goNIC per rank. It owns the batched send
// path, the per-turn flush of each token holder's staged sends (Send),
// wall-clock fault delays and timers, and mailbox hand-off.
type chanNet struct {
	w      *World
	nics   []*goNIC
	execs  []*goExec // per-rank actors, for typed (closure-free) delivery
	faults *netsim.FaultInjector
	// stopped is set by stop under timerMu, which each world timer's
	// callback holds for reading while it runs.
	timerMu sync.RWMutex
	stopped bool
}

// goNIC is one rank's NIC, the goroutine engine's netsim.Port: every
// step runs at once on the goroutine that reached it. Its translation
// state and counters have one writer, the rank's token holder, so it
// takes no lock and no atomic: sends are flushed, arrivals received and
// table pushes applied on the token, and a read or write from elsewhere
// is claimed or posted to it (World.claim, World.post). It is padded to
// four whole cache lines, so no two NICs share one
// (TestGoNICFillsWholeCacheLines; EXPERIMENTS.md W6, W12).
type goNIC struct {
	netsim.NICCore
	netsim.TransState
	l *Locality
	_ [48]byte
}

func (n *goNIC) Transmit(m *netsim.Message)    { n.l.w.net.Send(n.Rank, m) }
func (n *goNIC) Later(m *netsim.Message)       { n.ApplyTable(n, m) }
func (n *goNIC) DeliverHost(m *netsim.Message) { n.l.onHostMsg(m) }
func (n *goNIC) DeliverDMA(m *netsim.Message)  { n.l.onDMA(m) }

func newChanNet(w *World) *chanNet {
	c := &chanNet{w: w, faults: netsim.NewFaultInjector(w.cfg.Faults)}
	for _, l := range w.locs {
		n := &goNIC{
			NICCore:    netsim.NICCore{Rank: l.rank, GVARouting: w.caps.NICTranslation, Policy: w.cfg.Policy},
			TransState: netsim.NewTransState(w.cfg.NICTableCap),
			l:          l,
		}
		l.wireNIC(&n.NICCore, &n.TransState)
		c.nics = append(c.nics, n)
		ex := newGoExec()
		ex.l, l.exec = l, ex
		l.free, n.Free = &ex.rec, &ex.rec
		ex.onMsg = func(m *netsim.Message) { c.arrive(l, m) }
		ex.onStep = l.handleMsg
		ex.flush = func(ms []*netsim.Message) { c.send(l.rank, ms) }
		ex.inline = l.payloadPoolable()
		c.execs = append(c.execs, ex)
	}
	return c
}

func (c *chanNet) State(rank int, fn func(*netsim.TransState)) { fn(&c.nics[rank].TransState) }
func (c *chanNet) Stats(rank int) netsim.NICStats              { return c.nics[rank].Stats }

// Defer runs fn at once: with no simulated instant to batch within, the
// caller's step is as good a boundary as any.
func (c *chanNet) Defer(_ int, fn func()) { fn() }

// Send injects m at rank from. Every sender holds from's token. While an
// actor's turn runs the rank's sends are staged; a waited m flushes what
// is staged and leaves at once, so pairs keep their order.
func (c *chanNet) Send(from int, m *netsim.Message) {
	if e := c.execs[from]; e.open {
		if !m.Waited {
			e.out = append(e.out, m)
			return
		}
		e.flushOut()
	}
	c.send(from, []*netsim.Message{m})
}

// send carries ms, injected at rank from, in order, on from's token:
// each message is resolved (if ByGVA) and gated in one pass, and each
// destination mailbox is locked and woken once for its share (postRun).
func (c *chanNet) send(from int, ms []*netsim.Message) {
	n := c.nics[from]
	for i, m := range ms {
		if n.Address(m) {
			n.Resolve(m)
		}
		g, err := n.Gate(n, m, len(c.nics))
		if err != nil {
			c.w.fail("chanNet: %v", err)
		}
		ms[i] = g
	}
	fi, rc := c.faults, &c.execs[from].rec
	for i, m := range ms {
		switch {
		case m == nil:
		case fi == nil && m.Waited: // alone: a waited m is never staged
			c.execs[m.Dst].post(task{m: m}, true, rc)
		case fi == nil:
			c.execs[m.Dst].postRun(ms[i:], m.Dst, rc)
		default:
			fi.Inject(rc, m, 0, c.deliver)
		}
	}
}

// deliver hands m, which passed the fault stream, to the destination's
// typed mailbox — no capturing closure on the zero-delay path, where a
// waited m may drain an idle destination on this goroutine (goExec.post).
// A fault-injected delay is held on the wall clock: enough to reorder the
// message past later traffic.
func (c *chanNet) deliver(m *netsim.Message, delay netsim.VTime) {
	ex := c.execs[m.Dst]
	if delay > 0 {
		wallAfter(delay, func() { ex.execMsg(m) })
		return
	}
	ex.execMsg(m)
}

// arrive runs the NIC driver's receive on the destination's token holder.
func (c *chanNet) arrive(l *Locality, m *netsim.Message) {
	n := c.nics[l.rank]
	n.Receive(n, c.faults, m)
}

// goWall converts a simulated duration to wall clock through goTimeScale.
func goWall(d netsim.VTime) time.Duration { return time.Duration(int64(d) * goTimeScale) }

// wallAfter is the goroutine engine's one wall timer: goExec.After, the
// world timers (after) and the transport's fault delays all arm here.
func wallAfter(d netsim.VTime, fn func()) { time.AfterFunc(goWall(d), fn) }

// stopDrainTimeout bounds how long stop waits for in-flight migrations
// before abandoning them; waitTimeout bounds Wait.
const stopDrainTimeout, waitTimeout = 2 * time.Second, 30 * time.Second

func (c *chanNet) start() {
	for _, e := range c.execs {
		e.start()
	}
}

// queueDepthsInto reads each rank's mailbox depth.
func (c *chanNet) queueDepthsInto(counts []int) {
	for r, e := range c.execs {
		counts[r] = e.depth()
	}
}

// stop retires the world timers (none starts once stop begins; a running
// one finishes first), waits briefly for in-flight migrations — tearing
// the actors down around a half-moved block would strand its queued
// traffic — then drains and stops the actors and aborts anything still
// mid-move, so the final state is consistent for post-mortem inspection.
func (c *chanNet) stop() {
	c.timerMu.Lock()
	c.stopped = true
	c.timerMu.Unlock()
	if c.w.started {
		c.await(c.noneMoving, stopDrainTimeout)
	}
	for _, e := range c.execs {
		e.stop()
	}
	c.abortStrandedMigrations()
}

// noneMoving reports that no locality has a block mid-move. It polls
// (chanNet.await): each rank is read in a claim taken only while its
// token is free (goExec.tryClaim), and a busy rank counts as moving, so a
// turn that never ends holds Stop for stopDrainTimeout at most. Only
// migrations that have already pinned count; a migrate.req still queued
// behind a stop simply never pins.
func (c *chanNet) noneMoving() bool {
	for r, l := range c.w.locs {
		none := false
		if !c.execs[r].tryClaim(func() { none = len(l.moving) == 0 }) || !none {
			return false
		}
	}
	return true
}

// abortStrandedMigrations runs after the actors have stopped, so it
// reads and writes every rank directly: any block still pinned mid-move
// is unpinned in place (the move is abandoned; the block stays at its
// old owner) and its queued arrivals are discarded, so the stopped
// world's image is consistent.
func (c *chanNet) abortStrandedMigrations() {
	for _, l := range c.w.locs {
		stranded := l.moving
		l.moving = make(map[gas.BlockID]*moveState)
		for b, st := range stranded {
			l.space.AbortMigrate(b)
			l.note(TraceMigrateAbort, b, 0, 0)
			// The data may have landed at a destination whose commit died
			// with the actors; the abandoned move leaves no second master.
			if dl := c.w.locs[st.dst]; dl != l && dl.residentForNIC(b) {
				dl.store.Remove(b)
			}
		}
	}
}

// latNow reads wall time since World creation: there is no simulated
// clock. quiet is never true: the timers are wall clock, and nothing
// runs the world to exhaustion. hops is 1: the transport is a crossbar,
// every peer equidistant, and matching the DES crossbar keeps replica
// read targets (and so the golden counters) engine-independent.
func (c *chanNet) now() netsim.VTime             { return 0 }
func (c *chanNet) latNow() int64                 { return int64(time.Since(c.w.epoch)) }
func (c *chanNet) quiet() bool                   { return false }
func (c *chanNet) dump(io.Writer)                {}
func (c *chanNet) hops(_, _ int) int             { return 1 }
func (c *chanNet) faultStats() netsim.FaultStats { return c.faults.Snapshot() }
func (c *chanNet) fabric() *netsim.Fabric        { return nil }

// after is a wall timer that never starts fn once Stop has begun; Stop
// waits for one already running.
func (c *chanNet) after(d netsim.VTime, fn func()) {
	wallAfter(d, func() {
		c.timerMu.RLock()
		defer c.timerMu.RUnlock()
		if !c.stopped {
			fn()
		}
	})
}

// wait blocks the calling goroutine until obj fires. The timeout's timer
// is stopped on the way out: an unstopped one stays live until it fires.
func (c *chanNet) wait(obj lco.LCO, g gas.GVA) ([]byte, error) {
	done := make(chan struct{})
	obj.OnFire(func([]byte) { close(done) })
	t := time.NewTimer(waitTimeout)
	defer t.Stop()
	select {
	case <-done:
		return obj.Value(), nil
	case <-t.C:
		return nil, fmt.Errorf("%w: timeout after %v waiting on %v", ErrDeadlock, waitTimeout, g)
	}
}

// await polls cond until timeout.
func (c *chanNet) await(cond func() bool, timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); {
		if cond() {
			return true
		}
		time.Sleep(200 * time.Microsecond)
	}
	return cond()
}
