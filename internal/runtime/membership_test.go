package runtime

import (
	"bytes"
	"math/bits"
	"testing"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// relStress is a reliability config generous enough that recovery
// always outruns abandonment: suspicion needs ~5 backoff doublings plus
// two probe rounds before the dead rank's blocks re-home, and the
// in-flight op must still have retransmission attempts left when the
// redirect finally lands.
var relStress = ReliabilityConfig{Force: true, MaxAttempts: 64}

// TestKillPromotesReplicaAndServes drives the full crash pipeline in
// every mode and on both engines: a replicated block's master is
// killed mid-workload, retransmission silence raises suspicion,
// unanswered probes confirm death, a surviving replica holder is
// promoted to master, and the in-flight write lands on the promoted
// copy — which then serves reads for the whole surviving membership.
func TestKillPromotesReplicaAndServes(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: eng, Reliability: relStress})
		w.Start()
		lay, err := w.AllocLocal(1, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(0)
		w.MustWait(w.Proc(0).Put(g, []byte{1, 1}))
		if err := w.ReplicateLive(lay, 2); err != nil {
			t.Fatal(err)
		}

		// Rank 1 (the master and home) crashes; the write below finds
		// only silence until the survivors declare it dead and promote
		// a replica.
		w.Kill(1)
		ref := w.Proc(0).Put(g, []byte{2, 2})
		got := w.MustWait(ref)
		_ = got
		if !w.AwaitMember(1, MemberDead, 20*time.Second) {
			t.Fatalf("rank 1 never declared dead: state=%v stats=%+v", w.MemberState(1), w.MembershipStats())
		}

		for _, r := range []int{0, 2, 3} {
			got := w.MustWait(w.Proc(r).Get(g, 2))
			if !bytes.Equal(got, []byte{2, 2}) {
				t.Fatalf("rank %d read %v from promoted master", r, got)
			}
		}
		ms := w.MembershipStats()
		if ms.Deaths != 1 {
			t.Fatalf("deaths = %d, want 1 (stats %+v)", ms.Deaths, ms)
		}
		if ms.Suspicions == 0 {
			t.Fatal("death declared without suspicion")
		}
		if ms.Rehomed == 0 {
			t.Fatal("no block was re-homed despite a live replica")
		}
		if ms.Epoch == 0 {
			t.Fatal("membership epoch never bumped")
		}
	})
}

// TestUnreplicatedBlockIsLostCleanly kills the owner of a block with no
// replica: the block is lost, and traffic for it terminates through the
// acked stale-drop path (or bounded NACK abandonment) instead of
// black-holing or crashing the world.
func TestUnreplicatedBlockIsLostCleanly(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: eng, Reliability: relStress})
		w.Start()
		lay, err := w.AllocLocal(1, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(0)
		w.MustWait(w.Proc(0).Put(g, []byte{7}))

		w.Kill(1)
		// This put can never be applied — the only copy died. It must
		// still terminate: the reliability layer keeps retransmitting
		// until the surrogate's stale-delivery path acks-and-drops it.
		w.Proc(0).PutAsync(g, []byte{8}, nil)
		if !w.AwaitMember(1, MemberDead, 20*time.Second) {
			t.Fatalf("rank 1 never declared dead: %+v", w.MembershipStats())
		}
		if w.Config().Engine == EngineDES {
			w.Drain()
		} else {
			// Let the dead-nack/stale-drop round trips land.
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				ds := w.DeliveryStats()
				if ds.StaleDrops > 0 || ds.Abandoned > 0 {
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
		ms := w.MembershipStats()
		if ms.Lost == 0 {
			t.Fatalf("block not recorded lost: %+v", ms)
		}
		ds := w.DeliveryStats()
		if ds.StaleDrops == 0 && ds.Abandoned == 0 {
			t.Fatalf("orphaned put neither stale-dropped nor abandoned: %+v", ds)
		}
	})
}

// TestRetireDrainsAndServes retires a rank gracefully: its blocks
// migrate to survivors, reads and writes keep working through the
// recovery overlay, and the static mode refuses with a clear error.
func TestRetireDrainsAndServes(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: eng})
		w.Start()
		lay, err := w.AllocLocal(1, 64, 2)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(0)
		w.MustWait(w.Proc(0).Put(g, []byte{3, 3}))

		err = w.Retire(1)
		if mode == PGAS {
			if err == nil {
				t.Fatal("Retire must refuse on a static address space")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if st := w.MemberState(1); st != MemberDead {
			t.Fatalf("retired rank state = %v", st)
		}
		// The drained block serves reads and writes from every survivor.
		for _, r := range []int{0, 2, 3} {
			got := w.MustWait(w.Proc(r).Get(g, 2))
			if !bytes.Equal(got, []byte{3, 3}) {
				t.Fatalf("rank %d read %v after retire", r, got)
			}
		}
		w.MustWait(w.Proc(2).Put(g, []byte{4, 4}))
		if got := w.MustWait(w.Proc(3).Get(g, 2)); !bytes.Equal(got, []byte{4, 4}) {
			t.Fatalf("post-retire write read back %v", got)
		}
		ms := w.MembershipStats()
		if ms.Retires != 1 || ms.Epoch == 0 {
			t.Fatalf("retires=%d epoch=%d", ms.Retires, ms.Epoch)
		}
		// Retiring a dead rank must refuse.
		if err := w.Retire(1); err == nil {
			t.Fatal("double Retire accepted")
		}
	})
}

// TestJoinReadmitsAndServes kills a rank, recovers, then re-admits it:
// the reborn locality starts from a wiped image, catches up from the
// recovery overlay, and serves reads again.
func TestJoinReadmitsAndServes(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: eng, Reliability: relStress})
		w.Start()
		lay, err := w.AllocLocal(1, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(0)
		w.MustWait(w.Proc(0).Put(g, []byte{5, 5}))
		if err := w.ReplicateLive(lay, 2); err != nil {
			t.Fatal(err)
		}

		w.Kill(1)
		w.MustWait(w.Proc(0).Put(g, []byte{6, 6}))
		if !w.AwaitMember(1, MemberDead, 20*time.Second) {
			t.Fatalf("rank 1 never declared dead: %+v", w.MembershipStats())
		}

		// Join while the world keeps running; the rank must come back
		// alive and serve reads of the value written after its death.
		if err := w.Join(1); err != nil {
			t.Fatal(err)
		}
		if !w.AwaitMember(1, MemberAlive, 20*time.Second) {
			t.Fatalf("rank 1 never rejoined: state=%v", w.MemberState(1))
		}
		got := w.MustWait(w.Proc(1).Get(g, 2))
		if !bytes.Equal(got, []byte{6, 6}) {
			t.Fatalf("reborn rank read %v", got)
		}
		ms := w.MembershipStats()
		if ms.Joins != 1 || ms.Deaths != 1 {
			t.Fatalf("joins=%d deaths=%d", ms.Joins, ms.Deaths)
		}
		// Joining a live rank must refuse.
		if err := w.Join(1); err == nil {
			t.Fatal("Join of a live rank accepted")
		}
	})
}

// TestRestartBeforeDeathResumesTransparently kills and restarts a rank
// faster than the probe machinery can confirm death: the partition is
// transient, retransmissions drain the backlog, and membership records
// no death.
func TestRestartBeforeDeathResumesTransparently(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES, Reliability: relStress})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(0)

	w.Kill(1)
	ref := w.Proc(0).Put(g, []byte{9})
	// Bring the link back after two retransmission deadlines — well
	// before the two-round probe sequence can complete.
	w.Engine().After(3*relRTO, func() { w.Restart(1) })
	w.MustWait(ref)
	w.Drain()
	if got := w.MustWait(w.Proc(0).Get(g, 1)); !bytes.Equal(got, []byte{9}) {
		t.Fatalf("read %v after transient partition", got)
	}
	if ms := w.MembershipStats(); ms.Deaths != 0 {
		t.Fatalf("transient partition recorded a death: %+v", ms)
	}
}

// TestFaultPlanSchedulesKillAndRestart drives the same pipeline from a
// declarative fault plan instead of explicit calls: the schedule arms
// membership at Start and the C2-style kill fires on the engine clock.
func TestFaultPlanSchedulesKillAndRestart(t *testing.T) {
	w := testWorld(t, Config{
		Ranks: 4, Mode: AGASNM, Engine: EngineDES,
		Reliability: relStress,
		Faults: netsim.FaultPlan{
			KillAt: map[int]netsim.VTime{1: 50_000},
			// The restart must land after death is confirmed (~20ms:
			// five backoff doublings to the ceiling plus two probe
			// rounds) or the partition is transient and no Join runs.
			RestartAt: map[int]netsim.VTime{1: 60_000_000},
		},
	})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(0)
	w.MustWait(w.Proc(0).Put(g, []byte{1}))
	if err := w.ReplicateLive(lay, 2); err != nil {
		t.Fatal(err)
	}
	// Advance past the scheduled kill, then drive a put through the
	// dead window: it lands only after death and promotion.
	w.Engine().RunUntil(func() bool { return w.Now() >= 50_000 })
	w.MustWait(w.Proc(0).Put(g, []byte{2}))
	if !w.AwaitMember(1, MemberDead, 20*time.Second) {
		t.Fatalf("scheduled kill never confirmed: %+v", w.MembershipStats())
	}
	if got := w.MustWait(w.Proc(2).Get(g, 1)); !bytes.Equal(got, []byte{2}) {
		t.Fatalf("read %v after scheduled kill", got)
	}
	// The scheduled restart arrives after death was declared, so it
	// takes the full Join path and the rank comes back serving.
	if !w.AwaitMember(1, MemberAlive, 20*time.Second) {
		t.Fatalf("scheduled restart never rejoined: state=%v %+v", w.MemberState(1), w.MembershipStats())
	}
	if got := w.MustWait(w.Proc(1).Get(g, 1)); !bytes.Equal(got, []byte{2}) {
		t.Fatalf("reborn rank read %v", got)
	}
	if ms := w.MembershipStats(); ms.Deaths != 1 || ms.Joins != 1 {
		t.Fatalf("deaths=%d joins=%d, want 1/1", ms.Deaths, ms.Joins)
	}
}

// TestBackoffCeilingBoundary pins the satellite-3 boundary: under
// sustained silence the channel RTO doubles to exactly relMaxRTO and never
// beyond, and membership suspicion is raised only once the ceiling is
// reached — not on the first loss.
func TestBackoffCeilingBoundary(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: PGAS, Engine: EngineDES, Reliability: relStress})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Kill(1)
	w.Proc(0).PutAsync(lay.BlockAt(0), []byte{1}, nil)

	l := w.Locality(0)
	var maxSeen netsim.VTime
	var rtoAtFirstSuspicion netsim.VTime = -1
	sample := func() bool {
		l.rel.mu.Lock()
		for _, tc := range l.rel.tx {
			if tc == nil {
				continue // no message on this channel yet
			}
			if tc.rto > maxSeen {
				maxSeen = tc.rto
			}
			if rtoAtFirstSuspicion < 0 && w.MembershipStats().Suspicions > 0 {
				rtoAtFirstSuspicion = tc.rto
			}
		}
		l.rel.mu.Unlock()
		return w.MemberState(1) == MemberDead
	}
	w.Engine().RunUntil(sample)
	w.Drain()

	if maxSeen != relMaxRTO {
		t.Fatalf("backoff peaked at %d, want exactly relMaxRTO %d", maxSeen, relMaxRTO)
	}
	if rtoAtFirstSuspicion != relMaxRTO {
		t.Fatalf("suspicion raised at rto %d, want only at the ceiling %d", rtoAtFirstSuspicion, relMaxRTO)
	}
	if w.MemberState(1) != MemberDead {
		t.Fatal("sustained ceiling never confirmed death")
	}
}

// TestRelRxWindowEviction pins the receive-dedup window's fold
// boundary: out-of-order sequence numbers are held above the horizon —
// as window bits, or in the far set from 64 ahead on — only until the gap
// below them fills, at which point they are evicted into the cumulative
// horizon in one sweep: neither may retain folded entries, and dedup must
// keep recognising them through the horizon afterwards.
func TestRelRxWindowEviction(t *testing.T) {
	var rx relRxState
	above := func() int { return bits.OnesCount64(rx.win) + len(rx.far) }
	// Sequences 2..10 arrive ahead of 1, and 70..72 beyond the window's
	// reach: all parked above the horizon.
	for _, seq := range []uint64{2, 3, 4, 5, 6, 7, 8, 9, 10, 70, 71, 72} {
		rx.record(seq)
	}
	if rx.cum != 0 || above() != 12 || len(rx.far) != 3 {
		t.Fatalf("pre-fold: cum=%d above=%d far=%d, want 0/12/3", rx.cum, above(), len(rx.far))
	}
	if !rx.seen(5) || !rx.seen(71) || rx.seen(1) || rx.seen(11) || rx.seen(73) {
		t.Fatal("window membership wrong before fold")
	}
	// The gap fills: the whole run folds into cum and leaves the window;
	// the far arrivals are now within reach of the horizon and move into it.
	rx.record(1)
	if rx.cum != 10 {
		t.Fatalf("post-fold horizon = %d, want 10", rx.cum)
	}
	if above() != 3 || len(rx.far) != 0 {
		t.Fatalf("fold left above=%d far=%d, want the three far arrivals as window bits", above(), len(rx.far))
	}
	// Dedup still recognises folded history through the horizon alone.
	for seq := uint64(1); seq <= 10; seq++ {
		if !rx.seen(seq) {
			t.Fatalf("seq %d forgotten after fold", seq)
		}
	}
	// A fresh out-of-order arrival parks again; the horizon is unmoved.
	rx.record(12)
	if rx.cum != 10 || above() != 4 || rx.seen(11) || !rx.seen(72) {
		t.Fatalf("post-park: cum=%d above=%d", rx.cum, above())
	}
	// The rest of the gap fills: everything folds, nothing is retained.
	for seq := uint64(11); seq <= 69; seq++ {
		if seq != 12 {
			rx.record(seq)
		}
	}
	if rx.cum != 72 || above() != 0 {
		t.Fatalf("final fold: cum=%d above=%d, want 72/0", rx.cum, above())
	}
}

// TestRebirthResetsDedupStreams pins the Join half of the dedup
// boundary: a reborn rank restarts its send streams at sequence 1, so
// the world's receive records for the old incarnation must be evicted
// or every message from the new one would be suppressed as history.
func TestRebirthResetsDedupStreams(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: AGASSW, Engine: EngineDES, Reliability: relStress})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(0)
	w.MustWait(w.Proc(0).Put(g, []byte{1}))
	if err := w.ReplicateLive(lay, 2); err != nil {
		t.Fatal(err)
	}
	// Traffic FROM rank 1 seeds receive records keyed by src=1.
	w.MustWait(w.Proc(1).Put(g, []byte{2}))
	w.Kill(1)
	w.MustWait(w.Proc(0).Put(g, []byte{3}))
	if !w.AwaitMember(1, MemberDead, 20*time.Second) {
		t.Fatalf("rank 1 never declared dead: %+v", w.MembershipStats())
	}
	if err := w.Join(1); err != nil {
		t.Fatal(err)
	}
	if !w.AwaitMember(1, MemberAlive, 20*time.Second) {
		t.Fatal("rank 1 never rejoined")
	}
	w.relw.mu.Lock()
	row := w.relw.rx[1]
	w.relw.mu.Unlock()
	if row != nil {
		t.Fatalf("stale dedup streams for the dead incarnation survived rebirth: %+v", row)
	}
	// The reborn sender's stream restarts at seq 1 and is not
	// suppressed as duplicate history.
	w.MustWait(w.Proc(1).Put(g, []byte{4}))
	if got := w.MustWait(w.Proc(2).Get(g, 1)); !bytes.Equal(got, []byte{4}) {
		t.Fatalf("reborn sender's write suppressed: read %v", got)
	}
}

// TestStopAbortsInFlightMigrations is the satellite-2 regression: Stop
// on the goroutine engine must coexist with in-flight migrations —
// drain what it can, abort what it cannot, and leave every block
// resident exactly once. Run under -race this also pins the locking
// between Stop's drain loop and the migration hot path.
func TestStopAbortsInFlightMigrations(t *testing.T) {
	for _, mode := range []Mode{AGASSW, AGASNM} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: EngineGo})
			w.Start()
			lay, err := w.AllocLocal(0, 128, 16)
			if err != nil {
				t.Fatal(err)
			}
			p := w.Proc(0)
			for i := uint32(0); i < 16; i++ {
				p.Migrate(lay.BlockAt(i), int(i%3)+1)
			}
			// Stop immediately: some migrations are mid-flight.
			w.Stop()
			for r := 0; r < 4; r++ {
				l := w.Locality(r)
				l.mu.Lock()
				n := len(l.moving)
				l.mu.Unlock()
				if n != 0 {
					t.Fatalf("rank %d still has %d blocks mid-move after Stop", r, n)
				}
			}
			for i := uint32(0); i < 16; i++ {
				b := lay.Base.Block() + gas.BlockID(i)
				copies := 0
				for r := 0; r < 4; r++ {
					if blk, ok := w.Locality(r).Store().Get(b); ok && !blk.Replica {
						copies++
					}
				}
				if copies != 1 {
					t.Fatalf("block %d resident %d times after Stop", b, copies)
				}
			}
		})
	}
}
