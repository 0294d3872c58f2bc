package runtime

import (
	"testing"
	"time"

	"nmvgas/internal/netsim"
)

// pulseWorkload drives a small cross-rank put/get mix and returns the
// final stats. Used to compare worlds with and without the pulse.
func pulseWorkload(t *testing.T, w *World) WorldStats {
	t.Helper()
	w.Start()
	lay, err := w.AllocCyclic(0, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 40; i++ {
		g := lay.BlockAt(uint32(i % 8))
		if i%2 == 0 {
			w.MustWait(w.Proc(i%w.Ranks()).Put(g, buf))
		} else {
			w.MustWait(w.Proc(i%w.Ranks()).Get(g, 64))
		}
	}
	if w.Caps().Migration {
		if st := MigrateStatus(w.MustWait(w.Proc(0).Migrate(lay.BlockAt(2), w.Ranks()-1))); st != MigrateOK {
			t.Fatalf("migrate status %d", st)
		}
	}
	w.Drain()
	return w.Stats()
}

func TestDisabledPulseHooksAllocateNothing(t *testing.T) {
	w, err := NewWorld(Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	if w.pulse != nil {
		t.Fatal("pulse state allocated without Config.Pulse")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		w.pulseResume()
		if w.PulseCount() != 0 || w.PulseEnabled() || w.PulsePeriod() != 0 {
			t.Fatal("disabled pulse reports activity")
		}
		if h := w.Health(); h.Enabled {
			t.Fatal("disabled pulse reports health")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled pulse hooks allocate %v per run, want 0", allocs)
	}
}

// TestPulseGoldenSafe is the golden-divergence gate: a world with the
// pulse on (watchdogs evaluating every tick, no clients) must report
// counters byte-identical to a world with the pulse off — the tick adds
// engine events but touches no protocol state. Pulses is the single
// legitimate delta and is zeroed before comparing.
func TestPulseGoldenSafe(t *testing.T) {
	for _, mode := range []Mode{PGAS, AGASSW, AGASNM} {
		off := pulseWorkload(t, testWorld(t, Config{Ranks: 4, Mode: mode, Engine: EngineDES}))
		on := pulseWorkload(t, testWorld(t, Config{
			Ranks: 4, Mode: mode, Engine: EngineDES,
			Pulse: PulseConfig{Enabled: true, Period: 20 * netsim.Microsecond},
		}))
		if on.Pulses == 0 {
			t.Fatalf("%v: pulse never fired", mode)
		}
		on.Pulses = 0
		if off != on {
			t.Fatalf("%v: pulse-on stats diverge from pulse-off\noff: %+v\non:  %+v", mode, off, on)
		}
	}
}

// TestPulseResumesAcrossBlockingOps: the blocking one-sided ops advance
// the engine, so they are driver entry points like Wait and must re-arm
// a parked metronome. A driver that only blocks in them after a Drain
// used to run with the tick parked — watchdogs blind — however much
// simulated time its ops covered.
func TestPulseResumesAcrossBlockingOps(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES,
		Pulse: PulseConfig{Enabled: true, Period: 10 * netsim.Microsecond}})
	w.Start()
	lay, err := w.AllocLocal(1, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, p, buf := lay.BlockAt(0), w.Proc(0), make([]byte, 64)
	ops := []struct {
		name string
		run  func()
	}{
		{"PutWait", func() { p.PutWait(g, buf) }},
		{"GetWaitInto", func() { p.GetWaitInto(g, buf) }},
		{"PutVecWait", func() { p.PutVecWait(g, []PutSeg{{Off: 0, Data: buf[:8]}, {Off: 128, Data: buf[:8]}}) }},
		{"GetVecWaitInto", func() { p.GetVecWaitInto(g, []GetSeg{{Off: 0, N: 32}, {Off: 128, N: 32}}, buf) }},
	}
	for _, op := range ops {
		w.Drain() // parks the metronome
		ticks, start := w.PulseCount(), w.Now()
		for i := 0; i < 200; i++ {
			op.run()
		}
		periods := uint64((w.Now() - start) / w.PulsePeriod())
		if periods < 20 {
			t.Fatalf("%s: 200 ops span only %d pulse periods", op.name, periods)
		}
		if got := w.PulseCount() - ticks; got+1 < periods {
			t.Errorf("%s: %d ticks across %d pulse periods of blocking ops", op.name, got, periods)
		}
	}
}

// TestPulseDeterministic: two identical DES runs fire the identical
// number of ticks at the identical simulated times.
func TestPulseDeterministic(t *testing.T) {
	run := func() (uint64, netsim.VTime, WorldStats) {
		w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES,
			Pulse: PulseConfig{Enabled: true, Period: 10 * netsim.Microsecond}})
		s := pulseWorkload(t, w)
		return w.PulseCount(), w.Now(), s
	}
	n1, t1, s1 := run()
	n2, t2, s2 := run()
	if n1 != n2 || t1 != t2 || s1 != s2 {
		t.Fatalf("runs diverge: ticks %d vs %d, now %v vs %v", n1, n2, t1, t2)
	}
	if n1 == 0 {
		t.Fatal("pulse never fired")
	}
}

// TestPulseParksWhenIdle: the metronome must not keep the engine alive —
// Drain terminates, and an idle world accrues at most one trailing tick.
func TestPulseParksWhenIdle(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES,
		Pulse: PulseConfig{Enabled: true, Period: 10 * netsim.Microsecond}})
	w.Start()
	w.Drain() // must return: the tick parks once it is alone in the queue
	n := w.PulseCount()
	// Each driver entry re-arms the metronome for at most ONE trailing
	// tick (a fresh watchdog look), then it parks again.
	for i := 0; i < 3; i++ {
		before := w.PulseCount()
		w.Drain()
		if got := w.PulseCount(); got > before+1 {
			t.Fatalf("idle drain %d fired %d ticks, want <= 1", i, got-before)
		}
	}
	// New work resumes the metronome.
	lay, err := w.AllocCyclic(0, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 200)
	for i := 0; i < 50; i++ {
		w.MustWait(w.Proc(0).Put(lay.BlockAt(1), buf))
	}
	w.Drain()
	if got := w.PulseCount(); got <= n {
		t.Fatalf("pulse did not resume with new work (count %d -> %d)", n, got)
	}
}

// TestPulseClients: clients run in registration order with increasing
// 1-based sequence numbers; OnPulse panics when the pulse is off.
func TestPulseClients(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES,
		Pulse: PulseConfig{Enabled: true, Period: 10 * netsim.Microsecond}})
	var order []string
	var seqs []uint64
	w.OnPulse("a", func(pi PulseInfo) { order = append(order, "a"); seqs = append(seqs, pi.Seq) })
	w.OnPulse("b", func(pi PulseInfo) { order = append(order, "b") })
	pulseWorkload(t, w)
	if len(seqs) == 0 {
		t.Fatal("clients never ran")
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, s, i+1)
		}
	}
	for i := 0; i+1 < len(order); i += 2 {
		if order[i] != "a" || order[i+1] != "b" {
			t.Fatalf("client order broke at %d: %v", i, order[i:i+2])
		}
	}

	off := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES})
	defer func() {
		if recover() == nil {
			t.Fatal("OnPulse with pulse off did not panic")
		}
	}()
	off.OnPulse("x", func(PulseInfo) {})
}

// TestPulseGoEngine: the goroutine-engine ticker fires on the wall clock
// and stops with the world.
func TestPulseGoEngine(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineGo,
		// 10µs sim period × goTimeScale 10 = 100µs wall ticks.
		Pulse: PulseConfig{Enabled: true, Period: 10 * netsim.Microsecond}})
	w.Start()
	deadline := time.Now().Add(5 * time.Second)
	for w.PulseCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if w.PulseCount() == 0 {
		t.Fatal("goroutine-engine pulse never fired")
	}
	if h := w.Health(); !h.Enabled {
		t.Fatal("watchdogs not evaluating")
	}
	w.Stop()
	n := w.PulseCount()
	time.Sleep(5 * time.Millisecond)
	if got := w.PulseCount(); got > n+1 {
		t.Fatalf("ticker kept firing after Stop (%d -> %d)", n, got)
	}
}

// TestPulseSharded: the metronome runs as a barrier task under the
// parallel engine and the sharded run stays live and healthy.
func TestPulseSharded(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES, Shards: 2,
		Pulse: PulseConfig{Enabled: true, Period: 10 * netsim.Microsecond}})
	pulseWorkload(t, w)
	if w.PulseCount() == 0 {
		t.Fatal("pulse never fired under sharding")
	}
	if h := w.Health(); !h.Enabled || h.Level != WatchOK {
		t.Fatalf("sharded world unhealthy: %+v", h)
	}
}

// TestWatchdogRetransmitStorm: a seeded drop plan under load must trip
// the storm watchdog to critical within two pulses of the resend rate
// first crossing the critical threshold, and health must recover once
// the stream drains.
func TestWatchdogRetransmitStorm(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES,
		Faults: netsim.FaultPlan{Drop: 0.3, Seed: 7},
		Pulse: PulseConfig{Enabled: true, Period: 50 * netsim.Microsecond,
			Watchdogs: WatchdogConfig{RetransWarn: 4, RetransCritical: 16}}})
	var onset, trip uint64
	var lastRetrans uint64
	w.OnWatchdogTrip(func(ev WatchdogEvent) {
		if ev.Status.Name == WatchRetransStorm && ev.Status.Level == WatchCritical && trip == 0 {
			trip = ev.Pulse
		}
	})
	w.OnPulse("onset", func(pi PulseInfo) {
		cum := w.retransmitCount()
		d := cum - lastRetrans
		lastRetrans = cum
		if onset == 0 && d >= 16 {
			onset = pi.Seq
		}
	})
	w.Start()
	lay, err := w.AllocCyclic(0, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	for r := 0; r < 4; r++ {
		r := r
		w.Proc(r).Run(func() {
			var fire func(i int)
			fire = func(i int) {
				if i >= 60 {
					return
				}
				w.Locality(r).PutAsync(lay.BlockAt(uint32((i+r)%8)), buf, func() { fire(i + 1) })
			}
			for k := 0; k < 16; k++ {
				fire(0)
			}
		})
	}
	w.Drain()
	if trip == 0 {
		t.Fatalf("storm watchdog never tripped (%d retransmits)", lastRetrans)
	}
	if onset == 0 || trip > onset+2 {
		t.Fatalf("trip pulse %d, condition onset %d: latency > 2 pulses", trip, onset)
	}
	if !w.AwaitHealth(WatchOK, time.Second) {
		t.Fatalf("health did not recover after drain: %+v", w.Health())
	}
}

// TestInjectMigrationStall: the armed stall hook pins the block, the
// stall watchdog walks warn → critical on the dwell clock, release lets
// the migration commit and health return to ok.
func TestInjectMigrationStall(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES,
		Pulse: PulseConfig{Enabled: true, Period: 20 * netsim.Microsecond,
			Watchdogs: WatchdogConfig{StallWarnPulses: 2, StallCriticalPulses: 4}}})
	var pin, trip uint64
	w.OnWatchdogTrip(func(ev WatchdogEvent) {
		if ev.Status.Name == WatchMigrationStall && ev.Status.Level == WatchCritical && trip == 0 {
			trip = ev.Pulse
		}
	})
	w.OnPulse("pin", func(pi PulseInfo) {
		if pin != 0 {
			return
		}
		for _, st := range w.Health().Watchdogs {
			if st.Name == WatchMigrationStall && st.Rank >= 0 {
				pin = pi.Seq
			}
		}
	})
	w.Start()
	lay, err := w.AllocCyclic(0, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(1)
	w.Proc(0).PutWait(g, []byte("payload"))

	release := w.InjectMigrationStall()
	fut := w.Proc(0).Migrate(g, 3)
	if !w.AwaitHealth(WatchCritical, 2*time.Second) {
		t.Fatalf("stall watchdog never went critical: %+v", w.Health())
	}
	release()
	if st := MigrateStatus(w.MustWait(fut)); st != MigrateOK {
		t.Fatalf("migration failed after release: status %d", st)
	}
	if !w.AwaitHealth(WatchOK, time.Second) {
		t.Fatalf("health did not recover after release: %+v", w.Health())
	}
	if pin == 0 || trip == 0 || trip > pin+4+2 {
		t.Fatalf("pin pulse %d, trip pulse %d: dwell latency > 2 pulses past threshold", pin, trip)
	}
	// Data survived the stalled migration.
	if got := w.Proc(2).GetWait(g, 7); string(got) != "payload" {
		t.Fatalf("data lost across stalled migration: %q", got)
	}
}

// TestWatchdogMemberDwell: a dead rank reports critical through the
// member-dwell watchdog, and a rejoin clears it.
func TestWatchdogMemberDwell(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES,
		Reliability: relStress,
		Pulse:       PulseConfig{Enabled: true, Period: 20 * netsim.Microsecond}})
	w.Start()
	lay, err := w.AllocLocal(2, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Proc(0).PutWait(lay.BlockAt(0), []byte{1})
	w.Kill(2)
	// Suspicion builds through retransmission silence: traffic at the
	// dead rank is what exposes the crash.
	w.Proc(0).Put(lay.BlockAt(0), []byte{2})
	if !w.AwaitMember(2, MemberDead, 20*time.Second) {
		t.Fatal("rank 2 never declared dead")
	}
	if !w.AwaitHealth(WatchCritical, time.Second) {
		t.Fatalf("member-dwell watchdog not critical: %+v", w.Health())
	}
	found := false
	for _, st := range w.Health().Watchdogs {
		if st.Name == WatchMemberDwell && st.Level == WatchCritical && st.Rank == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("member-dwell did not name rank 2: %+v", w.Health().Watchdogs)
	}
	if err := w.Join(2); err != nil {
		t.Fatal(err)
	}
	if !w.AwaitMember(2, MemberAlive, time.Second) {
		t.Fatal("rank 2 never rejoined")
	}
	if !w.AwaitHealth(WatchOK, time.Second) {
		t.Fatalf("health did not clear after rejoin: %+v", w.Health())
	}
}
