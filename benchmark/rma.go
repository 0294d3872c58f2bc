package main

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nmvgas/vgas"
)

// rma is the one-sided application: a few clients, client c bound to
// Proc(c), each blocking on one operation at a time against blocks that
// live on other ranks. Every client owns a disjoint set of blocks and a
// shadow copy of them, so each get is checked against what the client
// last wrote, and the final read-back checks every byte.
//
// Mix by the op's position in its 20-cycle: 9 gets and 9 puts of 64 B,
// one 8×64 B gather, one 8×64 B scatter. Every MigEvery ops a client
// migrates one of its blocks to another rank that is not its own and
// waits for the move.

const (
	rmaSlot  = 64 // bytes per scalar op and per vector fragment
	rmaFrags = 8
)

// op kinds, indexing appStats.lat
const (
	kindGet = iota
	kindPut
	kindVec
)

type rmaClient struct {
	rank   int
	proc   *vgas.Proc
	keys   uint64
	migs   uint64
	blocks []uint32 // layout indices of the blocks this client owns
	shadow []byte   // len(blocks) × BSize
	issued atomic.Int64
	done   atomic.Int64
	bad    int64
	migOK  int64
	migBad int64

	lat     [3][]latSample
	migHost []float64
	migSim  []float64
	genNs   int64
	genN    int64
	lane    *lane

	buf   [rmaSlot * rmaFrags]byte
	psegs [rmaFrags]vgas.PutSeg
	gsegs [rmaFrags]vgas.GetSeg
	_     [64]byte
}

type rmaApp struct {
	wl      *workload
	w       *vgas.World
	lay     vgas.Layout
	epoch   time.Time
	clients []*rmaClient
	slots   uint64 // 64 B slots per block

	quota    int64
	stopping atomic.Bool
	wg       sync.WaitGroup
	desNext  int // DES: which client runs the next op

	opParent atomic.Int32
}

// rmaClients is min(host processors, 4, ranks): more clients than
// processors would time the scheduler, not the round trip.
func rmaClients(ranks int) int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n > ranks {
		n = ranks
	}
	return n
}

func newRMAApp(wl *workload, w *vgas.World, seed int64, epoch time.Time, rec *recorder) *rmaApp {
	a := &rmaApp{wl: wl, w: w, epoch: epoch, slots: uint64(wl.BSize / rmaSlot)}
	n := rmaClients(wl.Ranks)
	for c := 0; c < n; c++ {
		cl := &rmaClient{
			rank: c, proc: w.Proc(c),
			keys: streamSeed(seed, classRMA, uint64(c)),
			migs: streamSeed(seed, classRMAMig, uint64(c)),
			lane: rec.newLane(16384 / n),
		}
		for k := range cl.lat {
			cl.lat[k] = make([]latSample, 0, (1<<20)/(3*n))
		}
		a.clients = append(a.clients, cl)
	}
	return a
}

// alloc creates the target blocks, starting the cyclic distribution at
// rank 1 so that block d's home is (1+d) mod ranks, and hands client c
// the blocks d ≡ c (mod clients) whose home is another rank.
func (a *rmaApp) alloc(float64) error {
	lay, err := a.w.AllocCyclic(1%a.wl.Ranks, a.wl.BSize, a.wl.Blocks)
	if err != nil {
		return err
	}
	a.lay = lay
	n := len(a.clients)
	for d := uint32(0); d < a.wl.Blocks; d++ {
		cl := a.clients[int(d)%n]
		if lay.HomeOf(d) != cl.rank {
			cl.blocks = append(cl.blocks, d)
		}
	}
	for _, cl := range a.clients {
		cl.shadow = make([]byte, len(cl.blocks)*int(a.wl.BSize))
	}
	return nil
}

// launch starts the client goroutines on the goroutine engine. On DES the
// driver goroutine runs the ops itself from advance.
func (a *rmaApp) launch() {
	if a.wl.Engine == vgas.EngineDES {
		return
	}
	for _, cl := range a.clients {
		cl := cl
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			for a.step(cl) {
			}
		}()
	}
}

// step performs cl's next operation; false once the client is finished.
func (a *rmaApp) step(cl *rmaClient) bool {
	i := cl.issued.Load()
	if a.stopping.Load() || (a.quota > 0 && i >= a.quota) {
		return false
	}
	sampled := cl.keys&sampleMask == 0
	var t0, t1 int64
	if sampled {
		t0 = nowNs(a.epoch)
	}
	k := lcgNext(&cl.keys)
	bi := int((k >> 17) % uint64(len(cl.blocks)))
	slot := (k >> 40) % a.slots
	g := a.lay.BlockAt(cl.blocks[bi])
	sh := cl.shadow[bi*int(a.wl.BSize):][:a.wl.BSize]
	cl.issued.Store(i + 1)

	kind, name := kindGet, "rma.get"
	switch c := i % 20; {
	case c < 9:
		off := uint32(slot) * rmaSlot
		if sampled {
			t1 = nowNs(a.epoch)
		}
		cl.proc.GetWaitInto(g.WithOffset(off), cl.buf[:rmaSlot])
		if !bytes.Equal(cl.buf[:rmaSlot], sh[off:off+rmaSlot]) {
			cl.bad++
		}
	case c < 18:
		kind, name = kindPut, "rma.put"
		off := uint32(slot) * rmaSlot
		fillWords(sh[off:off+rmaSlot], k)
		if sampled {
			t1 = nowNs(a.epoch)
		}
		cl.proc.PutWait(g.WithOffset(off), sh[off:off+rmaSlot])
	case c == 18:
		kind, name = kindVec, "rma.getvec"
		for j := range cl.gsegs {
			cl.gsegs[j] = vgas.GetSeg{Off: a.fragOff(slot, j), N: rmaSlot}
		}
		if sampled {
			t1 = nowNs(a.epoch)
		}
		cl.proc.GetVecWaitInto(g, cl.gsegs[:], cl.buf[:])
		for j, s := range cl.gsegs {
			if !bytes.Equal(cl.buf[j*rmaSlot:(j+1)*rmaSlot], sh[s.Off:s.Off+rmaSlot]) {
				cl.bad++
			}
		}
	default:
		kind, name = kindVec, "rma.putvec"
		for j := range cl.psegs {
			off := a.fragOff(slot, j)
			fillWords(sh[off:off+rmaSlot], k+uint64(j))
			cl.psegs[j] = vgas.PutSeg{Off: off, Data: sh[off : off+rmaSlot]}
		}
		if sampled {
			t1 = nowNs(a.epoch)
		}
		cl.proc.PutVecWait(g, cl.psegs[:])
	}
	n := cl.done.Add(1)
	if sampled {
		t2 := nowNs(a.epoch)
		if l := &cl.lat[kind]; len(*l) < cap(*l) {
			*l = append(*l, latSample{end: t2, dur: t2 - t1})
		}
		cl.genNs += t1 - t0
		cl.genN++
		cl.lane.addOp(name, a.opParent.Load(), t1, t2, uint64(cl.rank+1)<<40|uint64(n))
	}
	if me := int64(a.wl.MigEvery); me > 0 && n%me == 0 {
		a.migrate(cl)
	}
	return true
}

// fragOff spreads a vector op's fragments over the block: eight distinct
// slots, a stride of slots/8 apart.
func (a *rmaApp) fragOff(slot uint64, j int) uint32 {
	return uint32((slot+uint64(j)*(a.slots/rmaFrags))%a.slots) * rmaSlot
}

// fillWords writes a deterministic pattern derived from k.
func fillWords(dst []byte, k uint64) {
	for o := 0; o+8 <= len(dst); o += 8 {
		k = mix64(k + uint64(o) + 1)
		binary.LittleEndian.PutUint64(dst[o:], k)
	}
}

// migrate moves one of cl's blocks to a rank other than cl's and waits.
func (a *rmaApp) migrate(cl *rmaClient) {
	if a.wl.Ranks < 2 {
		return
	}
	k := lcgNext(&cl.migs)
	d := cl.blocks[(k>>17)%uint64(len(cl.blocks))]
	to := (cl.rank + 1 + int((k>>40)%uint64(a.wl.Ranks-1))) % a.wl.Ranks
	t0 := nowNs(a.epoch)
	sim0 := a.w.Now()
	fut := cl.proc.Migrate(a.lay.BlockAt(d), to)
	v, err := a.w.Wait(fut)
	a.w.FreeLCO(fut)
	t1 := nowNs(a.epoch)
	if err != nil || vgas.MigrateStatus(v) != vgas.MigrateOK {
		cl.migBad++
		return
	}
	cl.migOK++
	sim := (a.w.Now() - sim0).Micros()
	if len(cl.migHost) < 4096 {
		cl.migHost = append(cl.migHost, float64(t1-t0)/1e3)
		cl.migSim = append(cl.migSim, sim)
	}
	cl.lane.add("rma.migrate", a.opParent.Load(), t0, t1, uint64(cl.rank+1)<<40|1<<39|uint64(cl.migOK), count{"sim_us", sim})
}

func (a *rmaApp) completed() int64 {
	var n int64
	for _, cl := range a.clients {
		n += cl.done.Load()
	}
	return n
}

func (a *rmaApp) advance(target int64, until time.Time) bool {
	done := func() bool { return a.completed() >= target }
	if a.wl.Engine != vgas.EngineDES {
		return sleepUntil(done, until)
	}
	for i := 0; !done(); i++ {
		if i&15 == 0 && !time.Now().Before(until) {
			break
		}
		cl := a.clients[a.desNext]
		a.desNext = (a.desNext + 1) % len(a.clients)
		if !a.step(cl) {
			break
		}
	}
	return true
}

// setStopping(true) lets every client finish its current op and return;
// launch after setStopping(false) starts the clients again.
func (a *rmaApp) setStopping(on bool) { a.stopping.Store(on) }

// drain waits for the client goroutines: each is inside at most one
// blocking op, which the runtime completes or times out.
func (a *rmaApp) drain(until time.Time) bool {
	if a.wl.Engine == vgas.EngineDES {
		return true
	}
	finished := make(chan struct{})
	go func() { a.wg.Wait(); close(finished) }()
	select {
	case <-finished:
		return true
	case <-time.After(time.Until(until)):
		return false
	}
}

// verify reads every owned block back and compares it with the shadow.
func (a *rmaApp) verify(int64) verdict {
	var v verdict
	buf := make([]byte, a.wl.BSize)
	for _, cl := range a.clients {
		v.Attempted += cl.issued.Load()
		v.Unfinished += cl.issued.Load() - cl.done.Load()
		v.BadGets += cl.bad
		if cl.migBad != 0 {
			v.Other += cl.migBad
			v.note("client %d: %d migrations failed", cl.rank, cl.migBad)
		}
		for bi, d := range cl.blocks {
			cl.proc.GetWaitInto(a.lay.BlockAt(d), buf)
			sh := cl.shadow[bi*int(a.wl.BSize):][:a.wl.BSize]
			for o := 0; o < len(buf); o += 8 {
				got := binary.LittleEndian.Uint64(buf[o:])
				v.Image = append(v.Image, got)
				if got != binary.LittleEndian.Uint64(sh[o:]) {
					v.WrongWords++
				}
			}
		}
	}
	if v.BadGets != 0 {
		v.note("%d gets disagreed with the shadow copy", v.BadGets)
	}
	if v.WrongWords != 0 {
		v.note("%d words differ from the shadow copy at read-back", v.WrongWords)
	}
	return v
}

func (a *rmaApp) stats() appStats {
	var s appStats
	for _, cl := range a.clients {
		for k := range cl.lat {
			s.lat[k] = append(s.lat[k], cl.lat[k]...)
		}
		s.migHost = append(s.migHost, cl.migHost...)
		s.migSim = append(s.migSim, cl.migSim...)
		s.genNs += cl.genNs
		s.genN += cl.genN
	}
	return s
}
