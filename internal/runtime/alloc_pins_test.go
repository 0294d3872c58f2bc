//go:build !race && !msgpoison

package runtime

import (
	goruntime "runtime"
	"testing"

	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// Allocation pins for the DES per-message path. The message is the
// scheduled event and is recycled by its terminal consumer, a user
// parcel's encoding rides a pooled wire buffer, and each locality decodes
// into its own parcel and runs the action on its own Ctx, so a parcel op
// allocates nothing (6 per round trip before the pooled parcel path) —
// not a closure per event and a message per send, forward and table push.
// The race detector and the msgpoison build both defeat sync.Pool reuse
// on purpose, so the pins only build without them.

// mallocsOver runs f once to warm up, then n times, and returns the heap
// allocations made over those n runs in total. testing.AllocsPerRun
// divides that total by n in integers, so a path that falls back to the
// heap on fewer than one run in one reads 0 there (200 fallbacks in 500
// runs do). Like AllocsPerRun it holds GOMAXPROCS at 1; the count is the
// whole process's, so it pins only loops that run on the calling
// goroutine (the classic DES engine).
func mallocsOver(n int, f func()) uint64 {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	f()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	goruntime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func TestDESAllocationPins(t *testing.T) {
	// PushUpdates off keeps the sender's NIC table cold, so every parcel
	// to the migrated block below takes exactly one in-network forward.
	w := testWorld(t, Config{
		Ranks: 3, Mode: AGASNM, Engine: EngineDES,
		Policy: netsim.Policy{NoPushUpdates: true},
	})
	pongs := 0
	pong := w.Register("pong", func(c *Ctx) { pongs++ })
	ping := w.Register("ping", func(c *Ctx) { c.Continue(c.P.Payload) })
	w.Start()
	lay, err := w.AllocLocal(1, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	direct, moved := lay.BlockAt(0), lay.BlockAt(1)
	if st := MigrateStatus(w.MustWait(w.Proc(0).Migrate(moved, 2))); st != MigrateOK {
		t.Fatalf("migrate status %d", st)
	}

	p0, l0 := w.Proc(0), w.Locality(0)
	payload := make([]byte, 16)
	target := direct
	issue := func() {
		l0.SendParcel(&parcel.Parcel{
			Action: ping, Target: target, Payload: payload,
			CAction: pong, CTarget: w.LocalityGVA(0),
		})
	}
	roundTrip := func() {
		p0.Run(issue)
		w.Drain()
	}
	buf := make([]byte, 64)
	put := func() { p0.PutWait(direct, buf) }

	for i := 0; i < 64; i++ { // fill the pools, the heap and the slab
		roundTrip()
		put()
	}
	forwards := func() uint64 { return w.Fabric().NIC(1).Stats[netsim.CntForwards] }

	f0 := forwards()
	rt := mallocsOver(200, roundTrip)
	t.Logf("direct round trip allocs: %v in 200", rt)
	if rt > 0 {
		t.Errorf("parcel round trip with continuation: %v allocs in 200, want 0", rt)
	}
	if forwards() != f0 {
		t.Fatal("direct round trips were forwarded")
	}
	n := mallocsOver(200, put)
	t.Logf("blocking put allocs: %v in 200", n)
	if n > 200 { // the scheduled issue's closure
		t.Errorf("blocking put: %v allocs in 200, want <= 200", n)
	}

	target = moved
	for i := 0; i < 16; i++ {
		roundTrip()
	}
	f0, pongs = forwards(), 0
	fwd := mallocsOver(200, roundTrip)
	t.Logf("forwarded round trip allocs: %v in 200", fwd)
	if fwd > 0 {
		t.Errorf("forwarded round trip: %v allocs in 200, want 0", fwd)
	}
	if got := forwards() - f0; got != 201 || pongs != 201 {
		t.Fatalf("201 forwarded round trips took %d forwards and %d continuations", got, pongs)
	}
}

// TestReliableAllocationPins holds the reliability layer's own allocations
// on the same two DES paths with the layer forced on over a perfect
// fabric: inside the 64-sequence window nothing is hashed and nothing is
// allocated per tracked message once the rings and the message pool are
// warm (the pristine copy is a pooled envelope, the receive record a bit),
// so what the layer adds is what pooling may not touch — payloads stay on
// the heap under it (payloadPoolable), a request's and a reply's: the
// round trip's two parcel encodings, and a put's. Before the windows
// these read 12 and 8; before the pooled parcel path the round trip read
// 8 (its two decoded parcels and two Ctxs).
func TestReliableAllocationPins(t *testing.T) {
	w := testWorld(t, Config{
		Ranks: 3, Mode: AGASNM, Engine: EngineDES,
		Reliability: ReliabilityConfig{Force: true},
	})
	pong := w.Register("pong", func(c *Ctx) {})
	ping := w.Register("ping", func(c *Ctx) { c.Continue(c.P.Payload) })
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, p0, l0 := lay.BlockAt(0), w.Proc(0), w.Locality(0)
	payload, buf := make([]byte, 16), make([]byte, 64)
	issue := func() {
		l0.SendParcel(&parcel.Parcel{
			Action: ping, Target: g, Payload: payload,
			CAction: pong, CTarget: w.LocalityGVA(0),
		})
	}
	roundTrip := func() {
		p0.Run(issue)
		w.Drain()
	}
	put := func() { p0.PutWait(g, buf) }
	for i := 0; i < 64; i++ { // fill the pools, the queue, the rings
		roundTrip()
		put()
	}
	rt := testing.AllocsPerRun(200, roundTrip)
	t.Logf("reliable round trip allocs: %v", rt)
	if rt > 4 {
		t.Errorf("reliable parcel round trip with continuation: %v allocs, want <= 4", rt)
	}
	n := testing.AllocsPerRun(200, put)
	t.Logf("reliable blocking put allocs: %v", n)
	if n > 2 { // the scheduled issue's closure, the heap payload
		t.Errorf("reliable blocking put: %v allocs, want <= 2", n)
	}
	w.Drain() // the last put's ack of its ack is still in flight
	if d := w.DeliveryStats(); d.Tracked == 0 || d.Retransmits != 0 || w.UnackedMessages() != 0 {
		t.Fatalf("forced layer over a perfect fabric: %+v, unacked %d", d, w.UnackedMessages())
	}
}

// TestGoEngineBlockingOpAllocationPins pins the goroutine engine's
// blocking one-sided round trips at zero: wire buffers are pooled in both
// directions, the waiter (completion channel included) is pooled, the
// request is laid out before issue with no closure, and each put's ack
// is a pooled message. The pipelined row issues a window of
// Proc.PutAsync calls with one shared callback, then waits for the
// window's acks. At a ~1 µs round trip one more allocation per op is a
// measurable tax no functional test would see.
func TestGoEngineBlockingOpAllocationPins(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineGo})
	w.Start()
	lay, err := w.AllocLocal(1, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, p := lay.BlockAt(0), w.Proc(0)
	buf, frag := make([]byte, 8*64), make([]byte, 64)
	psegs, gsegs := make([]PutSeg, 8), make([]GetSeg, 8)
	for i := range psegs {
		psegs[i] = PutSeg{Off: uint32(i * 512), Data: frag}
		gsegs[i] = GetSeg{Off: uint32(i * 512), N: 64}
	}
	const window = 16
	acks := make(chan struct{}, window)
	ack := func() { acks <- struct{}{} }
	pipelined := func() {
		for i := 0; i < window; i++ {
			p.PutAsync(g, frag, ack)
		}
		for i := 0; i < window; i++ {
			<-acks
		}
	}
	pins := []struct {
		name string
		max  float64
		run  func()
	}{
		{"PutWait", 0, func() { p.PutWait(g, frag) }},
		{"GetWaitInto", 0, func() { p.GetWaitInto(g, frag) }},
		{"PutVecWait", 0, func() { p.PutVecWait(g, psegs) }},
		{"GetVecWaitInto", 0, func() { p.GetVecWaitInto(g, gsegs, buf) }},
		{"PutAsync pipelined", 0, pipelined},
	}
	for _, pin := range pins {
		for i := 0; i < 64; i++ { // fill the message and wire-buffer pools
			pin.run()
		}
		n := testing.AllocsPerRun(500, pin.run)
		t.Logf("%s allocs: %v", pin.name, n)
		if n > pin.max {
			t.Errorf("%s: %v allocs, want <= %v", pin.name, n, pin.max)
		}
	}
}

// TestGoEngineParcelAllocationPins pins the goroutine engine's parcel
// round trip with continuation at zero, as on DES: both encodings ride
// pooled wire buffers, each locality decodes into its own parcel and
// runs the action on its own Ctx, and the driver's task is a mailbox
// slot, not a closure.
func TestGoEngineParcelAllocationPins(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineGo})
	done := make(chan struct{}, 1)
	pong := w.Register("pong", func(c *Ctx) { done <- struct{}{} })
	ping := w.Register("ping", func(c *Ctx) { c.Continue(c.P.Payload) })
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, p0, l0, payload := lay.BlockAt(0), w.Proc(0), w.Locality(0), make([]byte, 16)
	issue := func() {
		l0.SendParcel(&parcel.Parcel{
			Action: ping, Target: g, Payload: payload,
			CAction: pong, CTarget: w.LocalityGVA(0),
		})
	}
	roundTrip := func() {
		p0.Run(issue)
		<-done
	}
	for i := 0; i < 64; i++ { // fill the message and wire-buffer pools
		roundTrip()
	}
	n := testing.AllocsPerRun(500, roundTrip)
	t.Logf("parcel round trip allocs: %v", n)
	if n > 0 {
		t.Errorf("parcel round trip with continuation: %v allocs, want 0", n)
	}
}

// TestGoEngineBurstAllocationPins: a goroutine-engine turn that sends a
// burst of many more than netsim.RecycleKeep parcels takes them from the
// spares its rank's earlier turns parked (goExec.unpark), which the
// receiving rank's parked spares refill at each hand-off, not from the
// heap. It counts with mallocsOver, whose total does not round a few
// fallbacks per burst down to 0.
func TestGoEngineBurstAllocationPins(t *testing.T) {
	const burst, bursts = 128, 20
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineGo})
	done := make(chan struct{}, 1)
	got := 0
	sink := w.Register("sink", func(c *Ctx) {
		if got++; got == burst {
			got = 0
			done <- struct{}{}
		}
	})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, l0, payload := lay.BlockAt(0), w.Locality(0), make([]byte, 16)
	send := func() {
		for i := 0; i < burst; i++ {
			l0.SendParcel(&parcel.Parcel{Action: sink, Target: g, Payload: payload})
		}
	}
	run := func() {
		w.Proc(0).Run(send)
		<-done
	}
	for i := 0; i < 4; i++ { // let the spares settle
		run()
	}
	n := mallocsOver(bursts, run)
	t.Logf("%d mallocs over %d bursts of %d parcels", n, bursts, burst)
	if n > bursts*4 {
		t.Errorf("%d mallocs over %d bursts of %d parcels, want at most %d", n, bursts, burst, bursts*4)
	}
}
