package netsim

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"nmvgas/internal/gas"
)

// Tests for the NIC protocol core on its own: no world, no engine, no
// driver. Every branch of the decision functions is pinned by a table,
// the invariants both drivers rely on are checked over random state, and
// the same checks are the bodies of the fuzz targets.

// fakeLive is a membership view with settable facts.
type fakeLive struct {
	down   map[int]bool
	dead   map[int]int // declared-dead rank → surrogate
	rehome map[gas.BlockID]int
}

func (f *fakeLive) Down(r int) bool { return f.down[r] }
func (f *fakeLive) DeadHint(r int) (int, bool) {
	s, ok := f.dead[r]
	return s, ok
}
func (f *fakeLive) Rehome(b gas.BlockID) (int, bool) {
	o, ok := f.rehome[b]
	return o, ok
}

func coreAt(rank int, routing bool, pol Policy, resident ...gas.BlockID) *NICCore {
	here := map[gas.BlockID]bool{}
	for _, b := range resident {
		here[b] = true
	}
	return &NICCore{Rank: rank, GVARouting: routing, Policy: pol,
		Resident: func(b gas.BlockID) bool { return here[b] }}
}

// msgFor returns a message for block b homed at home, as it looks on
// arrival (Block cached from Target).
func msgFor(home int, b gas.BlockID) *Message {
	return &Message{Src: 7, Target: gas.New(home, b, 0), Block: b, Wire: 64}
}

func TestNICCoreVerdicts(t *testing.T) {
	const blk = gas.BlockID(50)
	downDst := &fakeLive{down: map[int]bool{3: true}}
	deadDst := &fakeLive{down: map[int]bool{3: true}, dead: map[int]int{3: 4}}
	rehomed := &fakeLive{down: map[int]bool{3: true}, dead: map[int]int{3: 4}, rehome: map[gas.BlockID]int{blk: 5}}
	rehomedHere := &fakeLive{down: map[int]bool{3: true}, dead: map[int]int{3: 4}, rehome: map[gas.BlockID]int{blk: 2}}
	selfDown := &fakeLive{down: map[int]bool{2: true}}

	with := func(m *Message, fn func(*Message)) *Message { fn(m); return m }
	state := func(fn func(*TransState)) *TransState {
		s := NewTransState(0)
		fn(&s)
		return &s
	}
	none := state(func(*TransState) {})
	routed := state(func(s *TransState) { s.InstallRoute(blk, 3) })
	cached := state(func(s *TransState) { s.Table.Update(blk, 3) })
	toSelf := state(func(s *TransState) { s.InstallRoute(blk, 2) })
	readTo6 := state(func(s *TransState) { s.InstallRoute(blk, 3); s.InstallReadRoute(blk, 6) })
	readToSelf := state(func(s *TransState) { s.InstallRoute(blk, 3); s.InstallReadRoute(blk, 2) })

	host := verdictHost
	fwd := func(to int, push bool) Verdict {
		return Verdict{Act: ActForward, Count: CntForwards, To: to, Push: push}
	}
	type verdictCase struct {
		name string
		m    *Message
		run  func(*Message) Verdict
		want Verdict
		// hops/dst, when set (>= 0), are m's fields after the call.
		hops, dst int
	}
	var cases []verdictCase
	add := func(name string, m *Message, run func(*Message) Verdict, want Verdict, hops, dst int) {
		cases = append(cases, verdictCase{name, m, run, want, hops, dst})
	}
	c := coreAt(2, true, Policy{})

	// Transmit fence.
	fence := func(lv Liveness) func(*Message) Verdict {
		return func(m *Message) Verdict { return c.Fence(lv, m) }
	}
	to3 := func() *Message { return with(msgFor(1, blk), func(m *Message) { m.Dst = 3 }) }
	add("fence/no membership", to3(), fence(nil), Verdict{}, -1, 3)
	add("fence/self down", to3(), fence(selfDown), verdictDrop, -1, 3)
	add("fence/dst up", to3(), fence(&fakeLive{}), Verdict{}, -1, 3)
	add("fence/dst down, self-send passes", with(to3(), func(m *Message) { m.Dst = 2 }), fence(downDst), Verdict{}, -1, 2)
	add("fence/rehomed: redirect in flight", to3(), fence(rehomed), Verdict{}, -1, 5)
	add("fence/rehomed but control: nowhere to bounce", with(to3(), func(m *Message) { m.Ctl = CtlTableUpdate }), fence(rehomed), verdictDrop, -1, 3)
	add("fence/dead: NACK with live home as hint", to3(), fence(deadDst),
		Verdict{Act: ActNack, Count: CntDeadNacks, Ctl: CtlNackLoop, To: 1}, -1, 3)
	add("fence/dead home: NACK with surrogate", with(msgFor(3, blk), func(m *Message) { m.Dst = 3 }), fence(deadDst),
		Verdict{Act: ActNack, Count: CntDeadNacks, Ctl: CtlNackLoop, To: 4}, -1, 3)
	add("fence/dead, rank-addressed: silent", &Message{Src: 7, Dst: 3}, fence(deadDst), verdictDrop, -1, 3)
	add("fence/down, undeclared: silent", to3(), fence(downDst), verdictDrop, -1, 3)

	// Receive classification.
	classify := func(c *NICCore, lv Liveness) func(*Message) Verdict {
		return func(m *Message) Verdict { return c.Classify(lv, m) }
	}
	dumb := coreAt(2, false, Policy{})
	owner := coreAt(2, true, Policy{}, blk)
	replica := coreAt(2, true, Policy{})
	replica.ResidentRead = func(b gas.BlockID) bool { return b == blk }
	add("classify/self down", msgFor(1, blk), classify(c, selfDown), verdictDrop, -1, -1)
	add("classify/table update", &Message{Ctl: CtlTableUpdate}, classify(c, nil), Verdict{Act: ActApplyTable, Count: CntTableUpdatesRx}, -1, -1)
	add("classify/table batch", &Message{Ctl: CtlTableBatch}, classify(dumb, nil), Verdict{Act: ActApplyTable, Count: CntTableUpdatesRx}, -1, -1)
	add("classify/nack to host", &Message{Ctl: CtlNack}, classify(c, nil), host, -1, -1)
	add("classify/loop nack to host", &Message{Ctl: CtlNackLoop}, classify(c, nil), host, -1, -1)
	add("classify/scatter", with(msgFor(1, blk), func(m *Message) { m.Scatter = true }), classify(c, nil), Verdict{Act: ActScatter}, -1, -1)
	add("classify/tracked batch does not scatter", with(msgFor(1, blk), func(m *Message) { m.Scatter = true; m.RelSeq = 9 }), classify(owner, nil), host, -1, -1)
	add("classify/dumb NIC does not scatter", with(msgFor(1, blk), func(m *Message) { m.Scatter = true }), classify(dumb, nil), host, -1, -1)
	add("classify/rank-addressed", &Message{Src: 1}, classify(c, nil), host, -1, -1)
	add("classify/resident two-sided", msgFor(1, blk), classify(owner, nil), host, -1, -1)
	add("classify/resident one-sided", with(msgFor(1, blk), func(m *Message) { m.DMA = true }), classify(owner, nil),
		Verdict{Act: ActDeliverDMA, Count: CntDMADelivered}, -1, -1)
	add("classify/replica serves a read", with(msgFor(1, blk), func(m *Message) { m.DMA, m.Read = true, true }), classify(replica, nil),
		Verdict{Act: ActDeliverDMA, Count: CntDMADelivered}, -1, -1)
	add("classify/replica does not serve a write", with(msgFor(1, blk), func(m *Message) { m.DMA = true }), classify(replica, nil),
		Verdict{Act: ActMisroute}, -1, -1)
	add("classify/not here, GVA routing", msgFor(1, blk), classify(c, nil), Verdict{Act: ActMisroute}, -1, -1)
	add("classify/not here, dumb NIC", msgFor(1, blk), classify(dumb, nil), host, -1, -1)
	add("classify/one-sided fault, dumb NIC", with(msgFor(1, blk), func(m *Message) { m.DMA = true }), classify(dumb, nil), host, -1, -1)

	// Misroute.
	mis := func(c *NICCore, st *TransState, lv Liveness) func(*Message) Verdict {
		return func(m *Message) Verdict { return c.Misroute(st, lv, m) }
	}
	read := func(hops int) *Message {
		return with(msgFor(1, blk), func(m *Message) { m.Read, m.Hops = true, hops })
	}
	nackPol := coreAt(2, true, Policy{NackToHost: true})
	noPush := coreAt(2, true, Policy{NoPushUpdates: true})
	atHome := coreAt(1, true, Policy{})
	add("misroute/read route forward, no push", read(0), mis(c, readTo6, nil), fwd(6, false), 1, -1)
	add("misroute/read route to self is ignored", read(0), mis(c, readToSelf, nil), fwd(3, true), 1, -1)
	add("misroute/read route out of budget falls to owner path", read(DefaultMaxHops), mis(c, readTo6, nil),
		Verdict{Act: ActNack, Count: CntLoopNacks, Ctl: CtlNackLoop, To: 1}, DefaultMaxHops+1, -1)
	add("misroute/write ignores read route", msgFor(1, blk), mis(c, readTo6, nil), fwd(3, true), 1, -1)
	add("misroute/authoritative route: forward and push", msgFor(1, blk), mis(c, routed, nil), fwd(3, true), 1, -1)
	add("misroute/cached entry: forward and push", msgFor(1, blk), mis(c, cached, nil), fwd(3, true), 1, -1)
	add("misroute/own message: no push to self", with(msgFor(1, blk), func(m *Message) { m.Src = 2 }), mis(c, routed, nil), fwd(3, false), 1, -1)
	add("misroute/NoPushUpdates", msgFor(1, blk), mis(noPush, routed, nil), fwd(3, false), 1, -1)
	add("misroute/no knowledge away from home: via home", msgFor(1, blk), mis(c, none, nil), fwd(1, true), 1, -1)
	add("misroute/no knowledge at home: host reports", msgFor(1, blk), mis(atHome, none, nil), host, 0, -1)
	add("misroute/route to self, not resident: host queues", msgFor(1, blk), mis(c, toSelf, nil), host, 0, -1)
	add("misroute/NackToHost", msgFor(1, blk), mis(nackPol, routed, nil),
		Verdict{Act: ActNack, Count: CntNacks, Ctl: CtlNack, To: 3}, 0, -1)
	add("misroute/hop budget spent: loop NACK with home hint", with(msgFor(1, blk), func(m *Message) { m.Hops = DefaultMaxHops }), mis(c, routed, nil),
		Verdict{Act: ActNack, Count: CntLoopNacks, Ctl: CtlNackLoop, To: 1}, DefaultMaxHops+1, -1)
	add("misroute/last hop in budget", with(msgFor(1, blk), func(m *Message) { m.Hops = DefaultMaxHops - 1 }), mis(c, routed, nil), fwd(3, true), DefaultMaxHops, -1)
	add("misroute/owner down, rehomed: forward to survivor", msgFor(1, blk), mis(c, routed, rehomed), fwd(5, true), 1, -1)
	add("misroute/owner dead, rehomed here: host arbitrates", msgFor(1, blk), mis(c, routed, rehomedHere), host, 0, -1)
	add("misroute/owner dead: host's stale-delivery path", msgFor(1, blk), mis(c, routed, deadDst), host, 0, -1)
	add("misroute/owner down, undeclared: forward into the silence", msgFor(1, blk), mis(c, routed, downDst), fwd(3, true), 1, -1)

	for _, tc := range cases {
		got := tc.run(tc.m)
		if got != tc.want {
			t.Errorf("%s: verdict %+v, want %+v", tc.name, got, tc.want)
		}
		if tc.hops >= 0 && tc.m.Hops != tc.hops {
			t.Errorf("%s: Hops %d, want %d", tc.name, tc.m.Hops, tc.hops)
		}
		if tc.dst >= 0 && tc.m.Dst != tc.dst {
			t.Errorf("%s: Dst %d, want %d", tc.name, tc.m.Dst, tc.dst)
		}
	}
}

func TestNICCoreResolve(t *testing.T) {
	s := NewTransState(0)
	m := func(read bool) *Message {
		return &Message{Dst: ByGVA, Target: gas.New(1, 50, 0), Block: 50, Read: read}
	}
	resolve := func(read bool) int { x := m(read); s.Resolve(x); return x.Dst }
	if d := resolve(false); d != 1 {
		t.Fatalf("no knowledge resolved to %d, want home 1", d)
	}
	s.InstallRoute(50, 3)
	if d := resolve(false); d != 3 {
		t.Fatalf("authoritative route resolved to %d, want 3", d)
	}
	s.Table.Update(50, 4)
	if d := resolve(false); d != 4 {
		t.Fatalf("table entry resolved to %d, want 4 (the table is consulted first)", d)
	}
	s.InstallReadRoute(50, 6)
	if d := resolve(true); d != 6 {
		t.Fatalf("replicated read resolved to %d, want 6", d)
	}
	if d := resolve(false); d != 4 {
		t.Fatalf("write followed the read route to %d", d)
	}
	if hits, misses, _, _ := s.Table.Stats(); hits != 2 || misses != 2 {
		t.Fatalf("table counted %d hits %d misses, want 2 and 2 (a steered read does not probe)", hits, misses)
	}
	s.ClearResident(50)
	if d := resolve(true); d != 1 {
		t.Fatalf("after ClearResident resolved to %d, want home 1", d)
	}
}

func TestNICCoreApplyTableAndControl(t *testing.T) {
	c := coreAt(2, true, Policy{})
	p := newRecPort(c)
	p.Table.TrustEpoch(epochAt(5))
	orig := msgFor(1, 50)
	upd := c.Control(CtlTableUpdate, orig, 3, p.Table.Epoch())
	if upd.Dst != orig.Src || upd.Src != 2 || upd.Block != 50 || upd.Owner != 3 || upd.Epoch != 5 || upd.Nacked != nil {
		t.Fatalf("table push built wrong: %+v", upd)
	}
	if c.ApplyTable(p, upd); c.Stats[CntStaleEpochDrops] != 0 {
		t.Fatal("current-epoch push reported stale")
	}
	if o, ok := peek(p.Table, 50); !ok || o != 3 {
		t.Fatalf("push not applied: %d,%v", o, ok)
	}
	if c.ApplyTable(p, c.Control(CtlTableUpdate, orig, 9, 4)); c.Stats[CntStaleEpochDrops] != 1 {
		t.Fatal("older-epoch push not reported stale")
	}
	if o, _ := peek(p.Table, 50); o != 3 {
		t.Fatalf("stale push applied: owner %d", o)
	}
	batch := &Message{Ctl: CtlTableBatch, Epoch: 5}
	batch.Payload = AppendTableEntry(AppendTableEntry(nil, 60, 1), 61, 4)
	if c.ApplyTable(p, batch); c.Stats[CntStaleEpochDrops] != 1 {
		t.Fatal("batch reported stale")
	}
	if o, ok := peek(p.Table, 61); !ok || o != 4 {
		t.Fatalf("batch entry missing: %d,%v", o, ok)
	}
	nk := c.Control(CtlNackLoop, orig, 1, 77)
	if nk.Dst != orig.Src || nk.Nacked != orig || nk.Owner != 1 || nk.Ctl != CtlNackLoop || nk.Epoch != 0 {
		t.Fatalf("NACK built wrong: %+v", nk)
	}
}

// scatterRecords lists the records of a scatter payload.
func scatterRecords(payload []byte) [][]byte {
	var recs [][]byte
	for r := NewScatterReader(payload); ; {
		_, enc, ok := r.Next()
		if !ok {
			return recs
		}
		recs = append(recs, enc)
	}
}

// scatterRecord is an encoded-parcel stand-in routed by g.
func scatterRecord(g gas.GVA, tag byte) []byte {
	enc := make([]byte, scatterGVAOff+8+2)
	for i := 0; i < 8; i++ {
		enc[scatterGVAOff+i] = byte(uint64(g) >> (8 * i))
	}
	enc[len(enc)-1] = tag
	return enc
}

// checkScatterSplit runs SplitScatter and checks what both drivers rely
// on: records are conserved byte for byte, none is re-bundled toward
// this rank, resident ones stay with the host, sub-batches are one per
// owner and one hop further along.
func checkScatterSplit(t testing.TB, c *NICCore, st *TransState, m *Message) {
	before := scatterRecords(m.Payload)
	payload, hops := m.Payload, m.Hops
	fwd, host, split := c.SplitScatter(st, m)
	if !split {
		if !host || len(fwd) != 0 || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("unsplit batch was touched: host=%v fwd=%d", host, len(fwd))
		}
		for _, enc := range before {
			if len(enc) >= scatterGVAOff+8 && !c.resident(ScatterGVA(enc).Block()) {
				t.Fatalf("batch with a non-resident record went up whole")
			}
		}
		return
	}
	var after [][]byte
	if host != (len(m.Payload) > 0) {
		t.Fatalf("host=%v with %d bytes left for it", host, len(m.Payload))
	}
	after = append(after, scatterRecords(m.Payload)...)
	seen := map[int]bool{}
	for _, f := range fwd {
		if f.Dst == c.Rank {
			t.Fatalf("sub-batch re-bundled for this rank")
		}
		if seen[f.Dst] {
			t.Fatalf("two sub-batches for rank %d", f.Dst)
		}
		seen[f.Dst] = true
		if f.Hops != hops+1 || !f.Scatter || f.Src != m.Src || f.Wire != wireHeader+len(f.Payload) {
			t.Fatalf("sub-batch built wrong: %+v", f)
		}
		if hops >= DefaultMaxHops {
			t.Fatalf("forwarded with the hop budget spent")
		}
		recs := scatterRecords(f.Payload)
		for _, enc := range recs {
			if len(enc) >= scatterGVAOff+8 && c.resident(ScatterGVA(enc).Block()) {
				t.Fatalf("resident record forwarded to rank %d", f.Dst)
			}
		}
		after = append(after, recs...)
	}
	less := func(s [][]byte) func(i, j int) bool {
		return func(i, j int) bool { return bytes.Compare(s[i], s[j]) < 0 }
	}
	sort.Slice(before, less(before))
	sort.Slice(after, less(after))
	if len(before) != len(after) {
		t.Fatalf("split changed the record count: %d → %d", len(before), len(after))
	}
	for i := range before {
		if !bytes.Equal(before[i], after[i]) {
			t.Fatalf("record %d changed across the split", i)
		}
	}
}

func TestSplitScatter(t *testing.T) {
	c := coreAt(2, true, Policy{}, 10, 11)
	st := NewTransState(0)
	st.InstallRoute(20, 3) // moved to 3
	st.Table.Update(21, 4) // cached at 4
	st.InstallRoute(22, 2) // mid-migration here: host queues
	batch := func(blocks ...gas.BlockID) *Message {
		m := &Message{Kind: 9, Src: 7, Target: gas.New(2, 10, 0), Block: 10, Scatter: true}
		for i, b := range blocks {
			m.Payload = AppendScatterRecord(m.Payload, scatterRecord(gas.New(5, b, 0), byte(i)))
		}
		m.Wire = wireHeader + len(m.Payload)
		return m
	}
	dsts := func(fwd []*Message) (d []int) {
		for _, f := range fwd {
			d = append(d, f.Dst)
		}
		return d
	}

	m := batch(10, 11, 10)
	checkScatterSplit(t, c, &st, m)
	if fwd, host, split := c.SplitScatter(&st, batch(10, 11)); split || !host || fwd != nil {
		t.Fatal("all-resident batch was split")
	}
	// Movers regroup per owner in first-appearance order; unknown blocks
	// go to their home; route-to-self stays with the host.
	m = batch(10, 20, 21, 20, 30, 22)
	fwd, host, split := c.SplitScatter(&st, m)
	if !split || !host {
		t.Fatalf("split=%v host=%v", split, host)
	}
	if got := dsts(fwd); len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("sub-batches to %v, want [3 4 5]", got)
	}
	if n := len(scatterRecords(fwd[0].Payload)); n != 2 {
		t.Fatalf("owner 3 got %d records, want 2", n)
	}
	if n := len(scatterRecords(m.Payload)); n != 2 {
		t.Fatalf("host kept %d records, want 2 (resident + mid-migration)", n)
	}
	checkScatterSplit(t, c, &st, batch(10, 20, 21, 20, 30, 22))
	// Nothing for the host: the envelope is spent.
	if _, host, split := c.SplitScatter(&st, batch(20, 21)); !split || host {
		t.Fatalf("all-mover batch: split=%v host=%v", split, host)
	}
	// Out of budget: nothing moves on, the host re-routes in software.
	m = batch(10, 20)
	m.Hops = DefaultMaxHops
	if fwd, host, split := c.SplitScatter(&st, m); !split || !host || len(fwd) != 0 || len(scatterRecords(m.Payload)) != 2 {
		t.Fatalf("out-of-budget batch: split=%v host=%v fwd=%d", split, host, len(fwd))
	}
}

// randomCore draws a rank, policy, residency, translation state and
// membership view over a small universe (8 ranks, 16 blocks) so that
// collisions — routes to self, dead owners, read routes to replicas —
// are common.
func randomCore(r *rand.Rand) (*NICCore, *TransState, Liveness) {
	const ranks, blocks = 8, 16
	c := &NICCore{Rank: r.Intn(ranks), GVARouting: r.Intn(4) > 0,
		Policy: Policy{NackToHost: r.Intn(4) == 0, NoPushUpdates: r.Intn(3) == 0}}
	here, replicas := r.Uint32(), r.Uint32()
	c.Resident = func(b gas.BlockID) bool { return here>>(b%blocks)&1 == 1 }
	if r.Intn(2) == 0 {
		c.ResidentRead = func(b gas.BlockID) bool { return replicas>>(b%blocks)&1 == 1 }
	}
	st := NewTransState(r.Intn(3) * 4)
	for i := r.Intn(12); i > 0; i-- {
		b, o := gas.BlockID(r.Intn(blocks)), r.Intn(ranks)
		switch r.Intn(3) {
		case 0:
			st.InstallRoute(b, o)
		case 1:
			st.Table.Update(b, o)
		default:
			st.InstallReadRoute(b, o)
		}
	}
	if r.Intn(2) == 0 {
		return c, &st, nil
	}
	lv := &fakeLive{down: map[int]bool{}, dead: map[int]int{}, rehome: map[gas.BlockID]int{}}
	for i := r.Intn(3); i > 0; i-- {
		d := r.Intn(ranks)
		lv.down[d] = true
		if r.Intn(2) == 0 {
			lv.dead[d] = r.Intn(ranks)
		}
	}
	for i := r.Intn(3); i > 0; i-- {
		lv.rehome[gas.BlockID(r.Intn(blocks))] = r.Intn(ranks)
	}
	return c, &st, lv
}

// randomMessage draws an arrival; half of them come in between three
// hops below the hop cap and one above it.
func randomMessage(r *rand.Rand) *Message {
	m := &Message{Src: r.Intn(8), Hops: r.Intn(2)*(DefaultMaxHops-3) + r.Intn(5), DMA: r.Intn(2) == 0, Read: r.Intn(2) == 0, Wire: 32 + r.Intn(64)}
	if r.Intn(8) > 0 {
		m.Target = gas.New(r.Intn(8), gas.BlockID(r.Intn(16)), 0)
		m.Block = m.Target.Block()
	}
	if r.Intn(6) == 0 {
		m.Ctl = uint8(r.Intn(5))
		m.Owner, m.Epoch = r.Intn(8), uint64(r.Intn(3))
	}
	if r.Intn(5) == 0 {
		m.Scatter = true
		m.RelSeq = uint64(r.Intn(2) * r.Intn(9))
		for i := r.Intn(6); i > 0; i-- {
			m.Payload = AppendScatterRecord(m.Payload, scatterRecord(gas.New(r.Intn(8), gas.BlockID(r.Intn(16)), 0), byte(i)))
		}
	}
	return m
}

// checkReceive drives one arrival through the core the way a driver
// does and checks the invariants the drivers build on.
func checkReceive(t testing.TB, c *NICCore, st *TransState, lv Liveness, m *Message) {
	down := lv != nil && lv.Down(c.Rank)
	hopsIn := m.Hops
	v := c.Classify(lv, m)
	if down != (v.Act == ActDrop) {
		t.Fatalf("down=%v but verdict %+v", down, v)
	}
	if !down && m.Ctl == CtlNone && !(m.Scatter && m.RelSeq == 0 && c.GVARouting) && !m.Target.IsNull() &&
		c.resident(m.Block) && v.Act != ActDeliverHost && v.Act != ActDeliverDMA {
		t.Fatalf("resident block not delivered: %+v", v)
	}
	if v.Act == ActDeliverDMA && !m.DMA {
		t.Fatalf("DMA verdict for two-sided traffic")
	}
	switch v.Act {
	case ActApplyTable:
		c.ApplyTable(&recPort{TransState: *st, c: c}, m)
		return
	case ActScatter:
		checkScatterSplit(t, c, st, m)
		return
	case ActMisroute:
		if !c.GVARouting {
			t.Fatalf("dumb NIC asked to misroute")
		}
		v = c.Misroute(st, lv, m)
	}
	switch v.Act {
	case ActForward:
		if v.To == c.Rank {
			t.Fatalf("forward to self: %+v", v)
		}
		if m.Hops != hopsIn+1 || m.Hops > DefaultMaxHops {
			t.Fatalf("forward took Hops %d → %d with cap %d", hopsIn, m.Hops, DefaultMaxHops)
		}
		if v.Count != CntForwards || c.Policy.NackToHost && !m.Read {
			t.Fatalf("forward verdict %+v under policy %+v", v, c.Policy)
		}
		if v.Push && (c.Policy.NoPushUpdates || m.Src == c.Rank) {
			t.Fatalf("push against policy or to self: %+v", v)
		}
	case ActNack:
		if v.Ctl != CtlNack && v.Ctl != CtlNackLoop {
			t.Fatalf("NACK with ctl %d", v.Ctl)
		}
		nk := c.Control(v.Ctl, m, v.To, 0)
		if nk.Dst != m.Src || nk.Nacked != m || nk.Src != c.Rank {
			t.Fatalf("NACK not addressed to the source or does not own m: %+v", nk)
		}
	case ActDeliverHost, ActDeliverDMA, ActDrop:
	default:
		t.Fatalf("receive ended in %+v", v)
	}
	if v.Count == CntNone || v.Count >= NumCounters {
		t.Fatalf("verdict %+v names no counter", v)
	}
}

func TestNICCoreProperties(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 20000; i++ {
		c, st, lv := randomCore(r)
		m := randomMessage(r)
		if r.Intn(4) == 0 {
			// The transmit fence: a NACK owns m and goes to its source, a
			// redirect lands on a live rank.
			m.Dst = r.Intn(8)
			switch v := c.Fence(lv, m); v.Act {
			case ActPass:
				if lv != nil && m.Dst != c.Rank && lv.Down(m.Dst) {
					t.Fatalf("fence passed traffic to down rank %d", m.Dst)
				}
			case ActNack:
				if nk := c.Control(v.Ctl, m, v.To, 0); nk.Dst != m.Src || nk.Nacked != m || v.Count != CntDeadNacks {
					t.Fatalf("dead-rank NACK built wrong: %+v %+v", v, nk)
				}
			case ActDrop:
			default:
				t.Fatalf("fence returned %+v", v)
			}
			continue
		}
		checkReceive(t, c, st, lv, m)
	}
}

func TestNICCoreAllocatesNothing(t *testing.T) {
	c := coreAt(2, true, Policy{}, 10)
	st := NewTransState(0)
	st.InstallRoute(50, 3)
	st.InstallReadRoute(51, 6)
	lv := &fakeLive{down: map[int]bool{4: true}, dead: map[int]int{4: 5}, rehome: map[gas.BlockID]int{}}
	resident, moved, read, unknown := msgFor(2, 10), msgFor(1, 50), msgFor(1, 51), msgFor(1, 52)
	read.Read = true
	src := &Message{Dst: ByGVA, Target: gas.New(1, 50, 0), Block: 50}
	var stats NICStats
	var sink Verdict
	n := testing.AllocsPerRun(1000, func() {
		for _, m := range []*Message{resident, moved, read, unknown} {
			m.Hops, m.Dst = 0, 4
			sink = c.Fence(lv, m)
			if sink = c.Classify(lv, m); sink.Act == ActMisroute {
				sink = c.Misroute(&st, lv, m)
			}
			stats[sink.Count]++
		}
		src.Dst = ByGVA
		st.Resolve(src)
	})
	if n != 0 {
		t.Fatalf("%v allocations per pass over the non-scatter verdict paths, want 0", n)
	}
	if sink.Act != ActForward || stats[CntForwards] == 0 || stats[CntHostDelivered] == 0 {
		t.Fatalf("the pass did not exercise the paths: %+v %+v", sink, stats)
	}
}

// fuzzReader doles out a fuzz input as small integers; exhausted input
// reads as zeros.
type fuzzReader []byte

func (f *fuzzReader) n(mod int) int {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return int(b) % mod
}

// fuzzNIC builds a NIC (rank, policy, residency, translation state,
// membership view) and an arriving message from a fuzz input — the tail
// of it verbatim as the payload, so scatter batches and table batches
// arrive malformed.
func fuzzNIC(data []byte) (*NICCore, *TransState, Liveness, *Message) {
	in := fuzzReader(data)
	c := &NICCore{Rank: in.n(8), GVARouting: in.n(2) == 1,
		Policy: Policy{NackToHost: in.n(2) == 1, NoPushUpdates: in.n(2) == 1}}
	here, replicas := in.n(256)|in.n(256)<<8, in.n(256)
	c.Resident = func(b gas.BlockID) bool { return here>>(b%16)&1 == 1 }
	c.ResidentRead = func(b gas.BlockID) bool { return replicas>>(b%8)&1 == 1 }
	st := NewTransState(in.n(3) * 2)
	for i := in.n(8); i > 0; i-- {
		b, o := gas.BlockID(in.n(16)), in.n(8)
		switch in.n(3) {
		case 0:
			st.InstallRoute(b, o)
		case 1:
			st.Table.Update(b, o)
		default:
			st.InstallReadRoute(b, o)
		}
	}
	var lv Liveness
	if in.n(2) == 1 {
		fl := &fakeLive{down: map[int]bool{in.n(8): true}, dead: map[int]int{}, rehome: map[gas.BlockID]int{}}
		if in.n(2) == 1 {
			fl.dead[in.n(8)] = in.n(8)
		}
		if in.n(2) == 1 {
			fl.rehome[gas.BlockID(in.n(16))] = in.n(8)
		}
		lv = fl
	}
	m := &Message{Src: in.n(8), Hops: in.n(2)*(DefaultMaxHops-3) + in.n(5), DMA: in.n(2) == 1, Read: in.n(2) == 1,
		Ctl: uint8(in.n(5)), Scatter: in.n(2) == 1, RelSeq: uint64(in.n(2)), Epoch: uint64(in.n(3))}
	if in.n(4) > 0 {
		m.Target = gas.New(in.n(8), gas.BlockID(in.n(16)), 0)
		m.Block = m.Target.Block()
	}
	m.Payload = []byte(in)
	m.Wire = wireHeader + len(m.Payload)
	return c, &st, lv, m
}

// FuzzNICCoreReceive requires the core not to panic and to keep its
// invariants on a fuzzed NIC and arrival, and the driver's receive of the
// same arrival, through a recording port, to keep what ports rely on.
func FuzzNICCoreReceive(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 0, 0xff, 0, 3, 0, 5, 3, 1, 5, 4, 2, 5, 6, 0, 7, 1, 1, 5, 0, 0, 0, 0})
	f.Add(append([]byte{1, 1, 1, 2, 0x0f, 0xf0, 0, 1, 1, 3, 0, 0, 9, 1, 0, 1, 0, 0, 1, 4, 0, 0, 0},
		AppendScatterRecord(AppendScatterRecord(nil, scatterRecord(gas.New(1, 4, 0), 1)), scatterRecord(gas.New(3, 9, 0), 2))...))
	f.Add([]byte{3, 1, 0, 1, 0, 0, 2, 1, 3, 1, 9, 3, 0, 0, 2, 1, 0, 0, 0, 0, 4, 1, 255, 255, 255, 255, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, st, lv, m := fuzzNIC(data)
		checkReceive(t, c, st, lv, m)
		c, st, lv, m = fuzzNIC(data)
		checkDriverReceive(t, c, &recPort{TransState: *st, c: c}, lv, m)
	})
}

// FuzzScatterSplit feeds SplitScatter arbitrary batch payloads: truncated
// length prefixes, records too short to carry a GVA, lengths past the
// end. It must not panic, and whatever records the reader does find must
// come out the other side intact.
func FuzzScatterSplit(f *testing.F) {
	two := AppendScatterRecord(AppendScatterRecord(nil, scatterRecord(gas.New(1, 4, 0), 1)), scatterRecord(gas.New(3, 9, 0), 2))
	f.Add(two, uint8(0), uint16(0x0010))
	f.Add(two[:len(two)-3], uint8(1), uint16(0xffff))
	f.Add([]byte{200, 0, 0, 0, 1, 2}, uint8(0), uint16(0))
	f.Add([]byte{2, 0, 0, 0, 1, 2, 0, 0, 0, 0}, uint8(15), uint16(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(16), uint16(0))
	f.Fuzz(func(t *testing.T, payload []byte, hops uint8, here uint16) {
		c := &NICCore{Rank: int(hops) % 4, GVARouting: true,
			Resident: func(b gas.BlockID) bool { return here>>(b%16)&1 == 1 }}
		st := NewTransState(0)
		for b := gas.BlockID(0); b < 16; b += 3 {
			st.InstallRoute(b, int(b)%4)
		}
		m := &Message{Src: 1, Scatter: true, Hops: int(hops) % 20, Payload: payload, Wire: wireHeader + len(payload)}
		checkScatterSplit(t, c, &st, m)
	})
}
