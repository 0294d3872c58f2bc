package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"nmvgas/vgas"
)

// xorupdate is the message-driven application: a table of blocks
// distributed cyclically, every rank keeping `window` operations in
// flight. One operation is a parcel to the word's current owner that
// XORs an 8-byte value into the word and continues to the issuer's
// locality block, whose handler issues the next operation. XOR makes a
// lost update and a twice-executed update equally visible in the final
// image, which the bench recomputes from the same key streams.
//
// The generator holds no shared lock: each rank's key stream, counters
// and sample buffer are touched only from that rank's execution context
// (workloads.GUPS takes one global mutex per op and would measure itself
// on the goroutine engine).

// Key streams. One LCG step yields the word; the value is a mix of the
// same state, forced odd so no update is a no-op.
const (
	lcgMul = 6364136223846793005
	lcgInc = 1442695040888963407
)

func lcgNext(s *uint64) uint64 {
	*s = *s*lcgMul + lcgInc
	return *s
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// streamSeed derives an independent stream state from the run seed, a
// stream class and an index (rank or client).
func streamSeed(seed int64, class, idx uint64) uint64 {
	return mix64(uint64(seed)*0x9E3779B97F4A7C15 + class<<56 + idx + 1)
}

const (
	classKeys uint64 = 1 + iota
	classMig
	classRMA
	classRMAMig
)

// xorKey returns the next (word, value) of a rank's update stream.
func xorKey(s *uint64, words uint64) (word, val uint64) {
	k := lcgNext(s)
	return (k >> 17) % words, mix64(k) | 1
}

// sampleMask selects the 1-in-16 operations whose latency is recorded;
// it tests bits of the op's own key, so the choice is independent of the
// op's position and kind.
const sampleMask = 15 << 40

type latSample struct {
	end int64 // host ns since the run epoch, to assign it to a section
	dur int64
}

// xorRank is one rank's generator state. Except for the atomics, only
// the rank's own execution context touches it.
type xorRank struct {
	keys    uint64
	migs    uint64
	issued  atomic.Int64
	done    atomic.Int64
	migOut  atomic.Int64 // migrations this rank started and not yet seen done
	migT0   int64        // host ns of the outstanding migration
	migSim0 vgas.VTime
	migHost []float64
	migSim  []float64
	lat     []latSample
	lane    *lane
	genNs   int64 // generator time over sampled ops
	genN    int64
	payload [16]byte
	_       [64]byte
}

type xorApp struct {
	wl     *workload
	w      *vgas.World
	lay    vgas.Layout
	words  uint64
	epoch  time.Time
	update vgas.ActionID
	next   vgas.ActionID
	migEnd vgas.ActionID
	ranks  []xorRank

	// quota, when positive, is each rank's fixed op count (fixed-op
	// runs); otherwise ranks issue until stopping is set.
	quota    int64
	stopping atomic.Bool

	// notResident counts updates that ran where the block was not: the
	// runtime guarantees zero.
	notResident atomic.Int64
	migBad      atomic.Int64

	opParent atomic.Int32
}

func nowNs(epoch time.Time) int64 { return int64(time.Since(epoch)) }

// newXorApp registers the application's actions; call before w.Start.
func newXorApp(wl *workload, w *vgas.World, seed int64, epoch time.Time, rec *recorder) *xorApp {
	a := &xorApp{wl: wl, w: w, epoch: epoch, ranks: make([]xorRank, wl.Ranks)}
	a.update = w.Register("bench.xor.update", a.onUpdate)
	a.next = w.Register("bench.xor.next", a.onNext)
	a.migEnd = w.Register("bench.xor.migdone", a.onMigDone)
	latCap := (1 << 20) / wl.Ranks
	spanCap := 16384/wl.Ranks + 1
	for r := range a.ranks {
		st := &a.ranks[r]
		st.keys = streamSeed(seed, classKeys, uint64(r))
		st.migs = streamSeed(seed, classMig, uint64(r))
		st.lat = make([]latSample, 0, latCap)
		st.lane = rec.newLane(spanCap)
	}
	return a
}

func (a *xorApp) alloc(scale float64) error {
	lay, err := a.w.AllocCyclic(0, a.wl.BSize, a.wl.Blocks)
	if err != nil {
		return err
	}
	a.lay = lay
	a.words = lay.Bytes() / 8
	if a.wl.MigEvery > 0 {
		return a.scatter(int(scatterRounds*scale) + 1)
	}
	return nil
}

// scatterRounds is how many times scatter moves each block at full scale.
const scatterRounds = 64

// scatter ages the world before any op runs: every block is migrated
// rounds times to ranks drawn from the rank-0 migration stream.
// Under churn each migration leaves a forwarding entry at the rank it
// leaves, and forwards per op keep climbing until nearly every rank holds
// one for every block — tens of seconds at the workloads' churn rate.
// Migrations with no traffic in flight cost microseconds, so the set-up
// gets the world to that state directly and the timed section measures
// the steady state instead of a drift whose depth depends on how fast the
// host is.
func (a *xorApp) scatter(rounds int) error {
	st := &a.ranks[0]
	futs := make([]*vgas.LCORef, a.wl.Blocks)
	for round := 0; round < rounds; round++ {
		// One round's moves touch distinct blocks, so they run together.
		for d := range futs {
			to := int((lcgNext(&st.migs) >> 40) % uint64(len(a.ranks)))
			futs[d] = a.w.Proc(0).Migrate(a.lay.BlockAt(uint32(d)), to)
		}
		for d, fut := range futs {
			v, err := a.w.Wait(fut)
			a.w.FreeLCO(fut)
			if err != nil {
				return err
			}
			if s := vgas.MigrateStatus(v); s != vgas.MigrateOK {
				return fmt.Errorf("scatter: round %d, block %d: status %d", round, d, s)
			}
		}
	}
	return nil
}

// launch opens every rank's window from the rank's own context.
func (a *xorApp) launch() {
	for r := range a.ranks {
		r := r
		a.w.Proc(r).Run(func() {
			for i := 0; i < a.wl.Window; i++ {
				a.issue(r)
			}
		})
	}
}

// issue sends rank r's next update. Rank context only.
func (a *xorApp) issue(r int) {
	st := &a.ranks[r]
	if a.stopping.Load() || (a.quota > 0 && st.issued.Load() >= a.quota) {
		return
	}
	// The sampling decision reads the previous op's key state, so it is
	// made before any generator work is timed.
	sampled := st.keys&sampleMask == 0
	var t0 int64
	if sampled {
		t0 = nowNs(a.epoch)
	}
	word, val := xorKey(&st.keys, a.words)
	st.issued.Add(1)
	target := a.lay.At(word * 8)
	var tag uint64
	if sampled {
		t1 := nowNs(a.epoch)
		st.genNs += t1 - t0
		st.genN++
		tag = uint64(t1) + 1
	}
	binary.LittleEndian.PutUint64(st.payload[0:], val)
	binary.LittleEndian.PutUint64(st.payload[8:], tag)
	a.w.Locality(r).SendParcel(&vgas.Parcel{
		Action:  a.update,
		Target:  target,
		Payload: st.payload[:],
		CAction: a.next,
		CTarget: a.w.LocalityGVA(r),
	})
}

// onUpdate runs at the word's current owner.
func (a *xorApp) onUpdate(c *vgas.Ctx) {
	data := c.Local(c.P.Target)
	if data == nil {
		a.notResident.Add(1)
	} else {
		v := binary.LittleEndian.Uint64(data) ^ binary.LittleEndian.Uint64(c.P.Payload)
		binary.LittleEndian.PutUint64(data, v)
	}
	c.Continue(c.P.Payload[8:16])
}

// onNext runs at the issuer when an update's continuation arrives.
func (a *xorApp) onNext(c *vgas.Ctx) {
	r := c.Rank()
	st := &a.ranks[r]
	n := st.done.Add(1)
	if tag := binary.LittleEndian.Uint64(c.P.Payload); tag != 0 {
		t0 := int64(tag - 1)
		t1 := nowNs(a.epoch)
		if len(st.lat) < cap(st.lat) {
			st.lat = append(st.lat, latSample{end: t1, dur: t1 - t0})
		}
		st.lane.addOp("xor.op", a.opParent.Load(), t0, t1, uint64(r+1)<<40|uint64(n))
	}
	if me := int64(a.wl.MigEvery); me > 0 && n%me == int64(r)*me/int64(len(a.ranks)) {
		a.migrate(c, st)
	}
	a.issue(r)
}

// migrate starts one block migration from rank context: block and
// destination come from the rank's migration stream.
func (a *xorApp) migrate(c *vgas.Ctx, st *xorRank) {
	if a.stopping.Load() {
		return
	}
	if st.migOut.Load() != 0 {
		return // the previous one is still outstanding: skip this pacing point
	}
	k := lcgNext(&st.migs)
	block := uint32((k >> 17) % uint64(a.wl.Blocks))
	to := int((k >> 40) % uint64(len(a.ranks)))
	st.migOut.Store(1)
	st.migT0 = nowNs(a.epoch)
	st.migSim0 = c.Now()
	a.w.Locality(c.Rank()).MigrateAsync(a.lay.BlockAt(block), to, a.migEnd, a.w.LocalityGVA(c.Rank()))
}

// onMigDone is the migration's continuation at the rank that started it.
func (a *xorApp) onMigDone(c *vgas.Ctx) {
	st := &a.ranks[c.Rank()]
	if vgas.MigrateStatus(c.P.Payload) != vgas.MigrateOK {
		a.migBad.Add(1)
	}
	t1 := nowNs(a.epoch)
	sim := c.Now() - st.migSim0
	if len(st.migHost) < 4096 {
		st.migHost = append(st.migHost, float64(t1-st.migT0)/1e3)
		st.migSim = append(st.migSim, sim.Micros())
	}
	st.lane.add("xor.migrate", a.opParent.Load(), st.migT0, t1, uint64(c.Rank()+1)<<40|1<<39|uint64(len(st.migHost)),
		count{"sim_us", sim.Micros()})
	st.migOut.Store(0)
}

func (a *xorApp) completed() int64 {
	var n int64
	for r := range a.ranks {
		n += a.ranks[r].done.Load()
	}
	return n
}

// quiesced reports that every issued op completed and no migration this
// app started is still in flight.
func (a *xorApp) quiesced() bool {
	for r := range a.ranks {
		st := &a.ranks[r]
		if st.done.Load() != st.issued.Load() || st.migOut.Load() != 0 {
			return false
		}
	}
	return true
}

// advance makes progress until target ops completed or the wall clock
// reaches until. It reports false when the engine ran dry first (an op
// was lost).
func (a *xorApp) advance(target int64, until time.Time) bool {
	done := func() bool { return a.completed() >= target }
	if a.wl.Engine == vgas.EngineDES {
		return a.w.Engine().RunUntilStride(func() bool {
			return done() || !time.Now().Before(until)
		}, 64)
	}
	return sleepUntil(done, until)
}

// setStopping(true) closes every window: ranks issue nothing more and the
// ops in flight complete. launch after setStopping(false) reopens them.
func (a *xorApp) setStopping(on bool) { a.stopping.Store(on) }

// drain waits for quiescence after setStopping(true) (or after every rank hit
// its quota).
func (a *xorApp) drain(until time.Time) bool {
	if a.wl.Engine == vgas.EngineDES {
		ok := a.w.Engine().RunUntilStride(func() bool {
			return a.quiesced() || !time.Now().Before(until)
		}, 64)
		return ok && a.quiesced()
	}
	sleepUntil(a.quiesced, until)
	return a.quiesced()
}

// sleepUntil polls cond on the goroutine engine, where the application
// runs on its own goroutines. With an unreachable cond it is one sleep.
func sleepUntil(cond func() bool, until time.Time) bool {
	for !cond() {
		left := time.Until(until)
		if left <= 0 {
			return true
		}
		if left > 500*time.Microsecond {
			left = 500 * time.Microsecond
		}
		time.Sleep(left)
	}
	return true
}

// expectedImage replays every rank's key stream for the number of ops it
// issued.
func xorExpectedImage(seed int64, words uint64, issued []int64) []uint64 {
	img := make([]uint64, words)
	for r, n := range issued {
		s := streamSeed(seed, classKeys, uint64(r))
		for i := int64(0); i < n; i++ {
			word, val := xorKey(&s, words)
			img[word] ^= val
		}
	}
	return img
}

// verdict is the outcome of an application's correctness check.
type verdict struct {
	Attempted  int64
	Unfinished int64 // issued but never completed
	WrongWords int64 // table words that differ from the expected image
	BadGets    int64 // rma: gets that disagreed with the shadow copy
	Other      int64 // invariant breaches (non-resident exec, bad migrate status, counter checks)
	Notes      []string
	Image      []uint64 // table contents read back (tests compare runs)
}

func (v *verdict) failed() int64 { return v.Unfinished + v.WrongWords + v.BadGets + v.Other }

func (v *verdict) note(format string, args ...any) {
	if len(v.Notes) < 8 {
		v.Notes = append(v.Notes, fmt.Sprintf(format, args...))
	}
}

// verify reads every block back through the runtime and compares it with
// the expected image. The world must be quiescent.
func (a *xorApp) verify(seed int64) verdict {
	issued := make([]int64, len(a.ranks))
	var v verdict
	for r := range a.ranks {
		issued[r] = a.ranks[r].issued.Load()
		v.Attempted += issued[r]
		v.Unfinished += issued[r] - a.ranks[r].done.Load()
	}
	want := xorExpectedImage(seed, a.words, issued)
	got := a.readImage()
	v.Image = got
	v.WrongWords = diffWords(want, got)
	if v.WrongWords != 0 {
		v.note("%d of %d table words differ from the expected image", v.WrongWords, len(want))
	}
	if n := a.notResident.Load(); n != 0 {
		v.Other += n
		v.note("%d updates executed where their block was not resident", n)
	}
	if n := a.migBad.Load(); n != 0 {
		v.Other += n
		v.note("%d migrations returned a status other than OK", n)
	}
	return v
}

func (a *xorApp) readImage() []uint64 {
	got := make([]uint64, a.words)
	buf := make([]byte, a.wl.BSize)
	p := a.w.Proc(0)
	per := int(a.wl.BSize) / 8
	for d := uint32(0); d < a.wl.Blocks; d++ {
		p.GetWaitInto(a.lay.BlockAt(d), buf)
		for i := 0; i < per; i++ {
			got[int(d)*per+i] = binary.LittleEndian.Uint64(buf[i*8:])
		}
	}
	return got
}

// diffWords counts positions where the two images differ.
func diffWords(want, got []uint64) int64 {
	var n int64
	for i := range want {
		if i >= len(got) || want[i] != got[i] {
			n++
		}
	}
	return n
}

// appStats is what an application hands the runner besides its verdict.
type appStats struct {
	lat     [3][]latSample // xor: [0] only; rma: get, put, vec
	migHost []float64      // µs per migration, issue → continuation
	migSim  []float64      // simulated µs per migration (DES)
	genNs   int64
	genN    int64
}

func (a *xorApp) stats() appStats {
	var s appStats
	for r := range a.ranks {
		st := &a.ranks[r]
		s.lat[0] = append(s.lat[0], st.lat...)
		s.migHost = append(s.migHost, st.migHost...)
		s.migSim = append(s.migSim, st.migSim...)
		s.genNs += st.genNs
		s.genN += st.genN
	}
	return s
}
