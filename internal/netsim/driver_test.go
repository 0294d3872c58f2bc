package netsim

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"nmvgas/internal/gas"
)

// Tests for the NIC driver (driver.go) through a recording Port: no
// fabric, no engine, no world. What the driver asks of a port — which
// calls, at which cost, with which counters — is all there is to see.

// recPort is a Port that holds one NIC's translation state, records
// every call the driver makes and keeps what was handed on. Later applies
// a table push at once through c, the core whose driver it serves, as
// the goroutine transport does; the counters are c's.
type recPort struct {
	TransState
	c     *NICCore
	calls []string
	out   []*Message // transmitted, in order
	up    []*Message // delivered to the host or by DMA, in order
}

func newRecPort(c *NICCore) *recPort { return &recPort{TransState: NewTransState(0), c: c} }

// epochAt returns a membership epoch counter standing at e, for a table
// to trust.
func epochAt(e uint64) *atomic.Uint64 {
	var c atomic.Uint64
	c.Store(e)
	return &c
}

func (p *recPort) Transmit(m *Message) {
	p.calls = append(p.calls, "transmit "+describe(m))
	p.out = append(p.out, m)
}

func (p *recPort) Later(m *Message) {
	p.calls = append(p.calls, "later table-write")
	p.c.ApplyTable(p, m)
}

func (p *recPort) DeliverHost(m *Message) {
	p.calls = append(p.calls, "host")
	p.up = append(p.up, m)
}

func (p *recPort) DeliverDMA(m *Message) {
	p.calls = append(p.calls, "dma")
	p.up = append(p.up, m)
}

// describe names a transmitted message by what the driver made of it.
func describe(m *Message) string {
	switch {
	case m.Ctl == CtlTableUpdate:
		return fmt.Sprintf("push to %d: %d→%d @%d", m.Dst, m.Block, m.Owner, m.Epoch)
	case m.Ctl == CtlNack || m.Ctl == CtlNackLoop:
		return fmt.Sprintf("nack to %d: owner %d", m.Dst, m.Owner)
	case m.Scatter:
		return fmt.Sprintf("scatter to %d: %d records", m.Dst, len(scatterRecords(m.Payload)))
	}
	return fmt.Sprintf("to %d hops %d", m.Dst, m.Hops)
}

// counts builds a NICStats from counter/value pairs.
func counts(kv ...any) (s NICStats) {
	for i := 0; i < len(kv); i += 2 {
		s[kv[i].(Counter)] = uint64(kv[i+1].(int))
	}
	return s
}

func batchOf(gvas ...gas.GVA) *Message {
	m := &Message{Src: 7, Scatter: true, Target: gvas[0], Block: gvas[0].Block()}
	for i, g := range gvas {
		m.Payload = AppendScatterRecord(m.Payload, scatterRecord(g, byte(i)))
	}
	m.Wire = wireHeader + len(m.Payload)
	return m
}

func TestDriverReceive(t *testing.T) {
	push := func(epoch uint64) *Message {
		return &Message{Ctl: CtlTableUpdate, Src: 7, Block: 60, Owner: 3, Epoch: epoch, Wire: 16}
	}
	dma := msgFor(2, 10)
	dma.DMA = true
	resident := batchOf(gas.New(2, 10, 0), gas.New(2, 11, 0))
	split := batchOf(gas.New(2, 10, 0), gas.New(1, 50, 0))
	spent := batchOf(gas.New(1, 50, 0), gas.New(1, 52, 0))
	cases := []struct {
		name   string
		pol    Policy
		lv     Liveness
		m      *Message
		calls  []string
		stats  NICStats
		check  func(t *testing.T, p *recPort, m *Message)
		orig   gas.GVA // the envelope is released when set
		traced []int   // OnForward's owners
	}{
		{name: "table push, fresh epoch", m: push(5),
			calls: []string{"later table-write"},
			stats: counts(CntTableUpdatesRx, 1),
			check: func(t *testing.T, p *recPort, _ *Message) {
				if o, ok := peek(p.Table, 60); !ok || o != 3 {
					t.Fatalf("push not applied: %d,%v", o, ok)
				}
			}},
		{name: "table push, stale epoch", m: push(4),
			calls: []string{"later table-write"},
			stats: counts(CntTableUpdatesRx, 1, CntStaleEpochDrops, 1),
			check: func(t *testing.T, p *recPort, _ *Message) {
				if _, ok := peek(p.Table, 60); ok {
					t.Fatal("stale push applied")
				}
			}},
		{name: "host", m: msgFor(2, 10),
			calls: []string{"host"},
			stats: counts(CntHostDelivered, 1)},
		{name: "dma", m: dma,
			calls: []string{"dma"},
			stats: counts(CntDMADelivered, 1)},
		{name: "nack to the source host", pol: Policy{NackToHost: true}, m: msgFor(1, 50),
			calls: []string{"transmit nack to 7: owner 3"},
			stats: counts(CntNacks, 1)},
		{name: "forward with push", m: msgFor(1, 50),
			calls:  []string{"transmit push to 7: 50→3 @5", "transmit to 3 hops 1"},
			stats:  counts(CntForwards, 1),
			traced: []int{3}},
		{name: "forward without push", pol: Policy{NoPushUpdates: true}, m: msgFor(1, 50),
			calls:  []string{"transmit to 3 hops 1"},
			stats:  counts(CntForwards, 1),
			traced: []int{3}},
		{name: "scatter, all resident", m: resident,
			calls: []string{"host"},
			stats: counts(CntHostDelivered, 1)},
		{name: "scatter split with a host share", m: split,
			calls: []string{"transmit scatter to 3: 1 records", "host"},
			stats: counts(CntScatterSplits, 1, CntScatterForwards, 1, CntHostDelivered, 1)},
		{name: "scatter, all forwarded", m: spent, orig: spent.Target,
			calls: []string{"transmit scatter to 3: 1 records", "transmit scatter to 1: 1 records"},
			stats: counts(CntScatterSplits, 1, CntScatterForwards, 2)},
		{name: "dropped at a down link", lv: &fakeLive{down: map[int]bool{2: true}}, m: msgFor(1, 50),
			stats: counts(CntDownDrops, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := coreAt(2, true, tc.pol, 10, 11)
			var traced []int
			c.OnForward = func(_ *Message, owner int) { traced = append(traced, owner) }
			p := newRecPort(c)
			p.Table.TrustEpoch(epochAt(5))
			p.InstallRoute(50, 3)
			want := tc.stats
			if tc.lv == nil { // what came off the link is counted too
				want[CntReceived], want[CntBytesRx] = 1, uint64(tc.m.WireSize())
			}
			if arrived := c.Receive(p, tc.lv, nil, tc.m); arrived != (tc.lv == nil) {
				t.Fatalf("arrived = %v", arrived)
			}
			if !reflect.DeepEqual(p.calls, tc.calls) {
				t.Fatalf("port calls %q, want %q", p.calls, tc.calls)
			}
			if c.Stats != want {
				t.Fatalf("counters %v, want %v", c.Stats, want)
			}
			if !reflect.DeepEqual(traced, tc.traced) {
				t.Fatalf("OnForward saw %v, want %v", traced, tc.traced)
			}
			if tc.orig != 0 && tc.m.Target == tc.orig {
				t.Fatal("the spent envelope was not released")
			}
			if tc.check != nil {
				tc.check(t, p, tc.m)
			}
		})
	}
}

// TestApplyTableDropsPushBelowSharedEpoch: two NICs trust one membership
// epoch. A push one of them stamped before the epoch advanced is dropped
// at the other and counted; one stamped after is applied.
func TestApplyTableDropsPushBelowSharedEpoch(t *testing.T) {
	epoch := epochAt(3)
	c, at := coreAt(2, true, Policy{}), coreAt(3, true, Policy{})
	from, to := newRecPort(c), newRecPort(at)
	from.Table.TrustEpoch(epoch)
	to.Table.TrustEpoch(epoch)
	stale := c.Control(CtlTableUpdate, msgFor(1, 50), 3, from.Table.Epoch())
	epoch.Add(1)
	at.ApplyTable(to, stale)
	if _, ok := peek(to.Table, 50); ok || at.Stats[CntStaleEpochDrops] != 1 {
		t.Fatalf("push stamped at 3 under epoch 4: applied=%v, %d stale drops; want dropped and 1", ok, at.Stats[CntStaleEpochDrops])
	}
	at.ApplyTable(to, c.Control(CtlTableUpdate, msgFor(1, 50), 3, from.Table.Epoch()))
	if o, ok := peek(to.Table, 50); !ok || o != 3 || at.Stats[CntStaleEpochDrops] != 1 {
		t.Fatalf("push stamped at the current epoch: %d,%v, %d stale drops", o, ok, at.Stats[CntStaleEpochDrops])
	}
}

func TestDriverReceiveDrawsSoftErrors(t *testing.T) {
	c := coreAt(2, true, Policy{}, 10)
	p := newRecPort(c)
	p.Table.Update(60, 3)
	fi := NewFaultInjector(FaultPlan{TableLoss: 1, Seed: 1})
	c.Receive(p, nil, fi, msgFor(2, 10))
	if p.Table.Len() != 0 || fi.Snapshot().TableEntriesLost != 1 {
		t.Fatalf("table holds %d entries after a certain soft error, lost %d", p.Table.Len(), fi.Snapshot().TableEntriesLost)
	}
	p.Table.Update(60, 3)
	c.Receive(p, nil, fi, &Message{Ctl: CtlTableUpdate, Src: 7, Block: 61, Owner: 4, Wire: 16})
	if p.Table.Len() != 2 {
		t.Fatal("a control arrival drew a soft error")
	}
}

func TestDriverSendGate(t *testing.T) {
	down3 := &fakeLive{down: map[int]bool{3: true}}
	dead3 := &fakeLive{down: map[int]bool{3: true}, dead: map[int]int{3: 4}}
	dead3src := &fakeLive{down: map[int]bool{3: true, 7: true}, dead: map[int]int{3: 4}}
	cases := []struct {
		name  string
		lv    Liveness
		dst   int
		want  string // "m", "nack to <src>: owner <hint>", or "nil"
		stats NICStats
	}{
		{name: "pass", dst: 3, want: "m"},
		{name: "pass to a live rank", lv: down3, dst: 1, want: "m"},
		{name: "silent drop at an undeclared corpse", lv: down3, dst: 3, want: "nil", stats: counts(CntDownDrops, 1)},
		{name: "dead rank NACKed with the live home", lv: dead3, dst: 3, want: "nack to 7: owner 1", stats: counts(CntDeadNacks, 1)},
		{name: "the NACK is fenced in turn", lv: dead3src, dst: 3, want: "nil", stats: counts(CntDeadNacks, 1, CntDownDrops, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := coreAt(2, true, Policy{})
			p := newRecPort(c)
			m := msgFor(1, 50)
			m.Dst = tc.dst
			g, err := c.Gate(p, tc.lv, m, 8)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.stats
			if g != nil { // what passes is counted sent
				want[CntSent], want[CntBytesTx] = 1, uint64(g.WireSize())
			}
			got := "nil"
			switch {
			case g == m:
				got = "m"
			case g != nil:
				got = describe(g)
				if g.Nacked != m {
					t.Fatal("the NACK does not own the message it replaced")
				}
			}
			if got != tc.want || c.Stats != want {
				t.Fatalf("gate gave %s with counters %v, want %s with %v", got, c.Stats, tc.want, want)
			}
			if len(p.calls) != 0 {
				t.Fatalf("the gate made port calls %q", p.calls)
			}
		})
	}
	if _, err := coreAt(2, true, Policy{}).Gate(newRecPort(nil), nil, &Message{Dst: 8}, 8); err == nil {
		t.Fatal("a send to rank 8 of 8 passed the gate")
	}
}

func TestDriverAddress(t *testing.T) {
	m := &Message{Dst: ByGVA, Target: gas.New(1, 50, 0)}
	if !coreAt(2, true, Policy{}).Address(m) || m.Block != 50 {
		t.Fatalf("ByGVA on a routing NIC not sent to translation (block %d)", m.Block)
	}
	if coreAt(2, true, Policy{}).Address(&Message{Dst: 1}) {
		t.Fatal("rank-addressed send sent to translation")
	}
	dumb := coreAt(2, false, Policy{})
	if dumb.Address(m) {
		t.Fatal("ByGVA on a dumb NIC sent to translation")
	}
	if _, err := dumb.Gate(newRecPort(dumb), nil, m, 8); err == nil {
		t.Fatal("ByGVA on a dumb NIC passed the gate")
	}
}

func TestInjectLandsWhatSurvives(t *testing.T) {
	type landing struct {
		m  *Message
		at VTime
	}
	var got []landing
	land := func(m *Message, at VTime) { got = append(got, landing{m, at}) }
	m := &Message{Dst: 1, Wire: 64}
	(*FaultInjector)(nil).Inject(nil, m, 100, land)
	if len(got) != 1 || got[0] != (landing{m, 100}) {
		t.Fatalf("no faults: %+v", got)
	}
	got = nil
	NewFaultInjector(FaultPlan{Drop: 1, Seed: 1}).Inject(nil, m, 100, land)
	if len(got) != 0 {
		t.Fatalf("a certain drop landed %+v", got)
	}
	NewFaultInjector(FaultPlan{Duplicate: 1, Seed: 1}).Inject(nil, m, 100, land)
	if len(got) != 2 || got[0].m == m || got[0].m.Dst != 1 || got[0].m.Wire != 64 || got[1] != (landing{m, 100}) || got[0].at <= 100 {
		t.Fatalf("a certain duplicate landed %+v, want a later clone, then m", got)
	}
}

// checkDriverReceive runs the driver's receive through a recording port
// and checks what every port relies on: an arrival at a down link is
// reported dropped and makes no call,
// each counter matches the calls it stands for, and the arrival ends in
// exactly one place — handed up, transmitted (itself, or owned by a
// NACK), or released.
func checkDriverReceive(t testing.TB, c *NICCore, p *recPort, lv Liveness, m *Message) {
	const sentinel = 0x5eed
	m.OpID = sentinel
	forwards := 0
	c.OnForward = func(f *Message, owner int) {
		if f != m || owner == c.Rank {
			t.Fatalf("OnForward saw %p toward %d", f, owner)
		}
		forwards++
	}
	down := lv != nil && lv.Down(c.Rank)
	if arrived := c.Receive(p, lv, nil, m); arrived == down {
		t.Fatalf("arrived = %v at a NIC whose link is down: %v", arrived, down)
	}
	if down {
		if len(p.calls) != 0 || c.Stats != counts(CntDownDrops, 1) {
			t.Fatalf("arrival at a down NIC: calls %q counters %v", p.calls, c.Stats)
		}
		return
	}
	tally := map[string]uint64{}
	for _, call := range p.calls {
		tally[call]++
	}
	handed := len(p.up)
	var nacks, scatters, forwarded uint64
	for _, o := range p.out {
		switch {
		case o == m:
			forwarded++
			handed++
			if o.Dst == c.Rank {
				t.Fatalf("forwarded to itself")
			}
		case o.Ctl == CtlNack || o.Ctl == CtlNackLoop:
			nacks++
			if o.Nacked == m {
				handed++
			}
			if o.Dst != m.Src || o.Src != c.Rank {
				t.Fatalf("NACK not from here to the source: %+v", o)
			}
		case o.Scatter:
			scatters++
		}
	}
	for _, u := range p.up {
		if u != m {
			t.Fatalf("a message other than the arrival went up")
		}
	}
	if m.OpID != sentinel { // released
		handed++
	}
	if handed != 1 {
		t.Fatalf("arrival handed on or released %d times: calls %q", handed, p.calls)
	}
	if s := &c.Stats; s[CntReceived] != 1 || s[CntHostDelivered] != tally["host"] || s[CntDMADelivered] != tally["dma"] ||
		s[CntTableUpdatesRx] != tally["later table-write"] ||
		s[CntForwards] != uint64(forwards) || s[CntForwards] != forwarded ||
		s[CntScatterForwards] != scatters || s[CntNacks]+s[CntLoopNacks] != nacks ||
		s[CntStaleEpochDrops] > s[CntTableUpdatesRx] {
		t.Fatalf("counters %v disagree with calls %q", c.Stats, p.calls)
	}
}
