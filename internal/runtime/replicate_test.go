package runtime

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"nmvgas/internal/agas"
	"nmvgas/internal/gas"
)

// settleCoherence waits for in-flight coherence traffic (invalidations,
// updates, refills) to land: writes acknowledge before their fan-out
// applies, so tests that assert post-write replica state must settle
// first. On DES the event queue drains; on the goroutine engine we poll
// the aggregate counters until pred holds.
func settleCoherence(t *testing.T, w *World, pred func(WorldStats) bool) {
	t.Helper()
	if w.Config().Engine == EngineDES {
		w.Drain()
		return
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if pred(w.Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("coherence traffic never settled: %+v", w.Stats())
}

func TestReplicateServesLocalReads(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: eng})
		w.Start()
		lay, err := w.AllocLocal(1, 256, 2)
		if err != nil {
			t.Fatal(err)
		}
		data := []byte{1, 2, 3, 4}
		w.MustWait(w.Proc(0).Put(lay.BlockAt(0), data))
		if err := w.ReplicateLive(lay, w.Ranks()-1); err != nil {
			t.Fatal(err)
		}
		// Every rank reads the same bytes, from its local copy.
		for r := 0; r < 4; r++ {
			got := w.MustWait(w.Proc(r).Get(lay.BlockAt(0), 4))
			if !bytes.Equal(got, data) {
				t.Fatalf("rank %d read %v", r, got)
			}
		}
	})
}

func TestReplicatedReadsSkipTheNetwork(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES})
	w.Start()
	lay, err := w.AllocLocal(1, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.MustWait(w.Proc(0).Put(lay.BlockAt(0), []byte{9}))
	if err := w.ReplicateLive(lay, w.Ranks()-1); err != nil {
		t.Fatal(err)
	}
	before := w.Fabric().TotalStats().Sent
	for r := 0; r < 4; r++ {
		w.MustWait(w.Proc(r).Get(lay.BlockAt(0), 1))
	}
	if got := w.Fabric().TotalStats().Sent; got != before {
		t.Fatalf("replicated gets used the network: %d messages", got-before)
	}
	// Replicated reads are also much faster than remote reads.
	start := w.Now()
	w.MustWait(w.Proc(3).Get(lay.BlockAt(0), 1))
	local := w.Now() - start
	lay2, err := w.AllocLocal(1, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.MustWait(w.Proc(3).Get(lay2.BlockAt(0), 1)) // warm
	start = w.Now()
	w.MustWait(w.Proc(3).Get(lay2.BlockAt(0), 1))
	remote := w.Now() - start
	if local*2 >= remote {
		t.Fatalf("replica read (%v) not much faster than remote (%v)", local, remote)
	}
}

func TestWritesKeepReplicasCoherent(t *testing.T) {
	// The tentpole's core semantics: a replicated layout stays writable,
	// and once the invalidate/refill round settles every rank reads the
	// new value — from its replica, not the master.
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: eng})
		w.Start()
		lay, err := w.AllocLocal(1, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		w.MustWait(w.Proc(1).Put(lay.BlockAt(0), []byte{1, 1}))
		if err := w.ReplicateLive(lay, 3); err != nil {
			t.Fatal(err)
		}
		w.MustWait(w.Proc(0).Put(lay.BlockAt(0), []byte{2, 2}))
		// 3 holders: each takes an invalidation and refills.
		settleCoherence(t, w, func(s WorldStats) bool {
			return s.ReplicaInvals >= 3 && s.ReplicaFills >= 3
		})
		for r := 0; r < 4; r++ {
			got := w.MustWait(w.Proc(r).Get(lay.BlockAt(0), 2))
			if !bytes.Equal(got, []byte{2, 2}) {
				t.Fatalf("rank %d read %v after coherent write", r, got)
			}
		}
		s := w.Stats()
		if s.ReplicaInvals != 3 || s.ReplicaFills != 3 {
			t.Fatalf("invals=%d fills=%d, want 3/3", s.ReplicaInvals, s.ReplicaFills)
		}
		if s.ReplicaReads == 0 {
			t.Fatal("no reads served from replicas")
		}
	})
}

func TestWriteUpdatePushesSnapshots(t *testing.T) {
	// Under write-update, holders receive the post-write block image and
	// never go stale: no refill round, no stale-window reads.
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES,
		Coherence: agas.WriteUpdate})
	w.Start()
	lay, err := w.AllocLocal(0, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ReplicateLive(lay, 3); err != nil {
		t.Fatal(err)
	}
	w.MustWait(w.Proc(2).Put(lay.BlockAt(0), []byte{7, 7, 7}))
	w.Drain()
	for r := 0; r < 4; r++ {
		got := w.MustWait(w.Proc(r).Get(lay.BlockAt(0), 3))
		if !bytes.Equal(got, []byte{7, 7, 7}) {
			t.Fatalf("rank %d read %v", r, got)
		}
	}
	s := w.Stats()
	if s.ReplicaUpdates != 3 {
		t.Fatalf("updates=%d, want 3", s.ReplicaUpdates)
	}
	if s.ReplicaInvals != 0 || s.ReplicaFills != 0 {
		t.Fatalf("invalidate traffic under write-update: invals=%d fills=%d",
			s.ReplicaInvals, s.ReplicaFills)
	}
	if s.ReplicaStaleReads != 0 {
		t.Fatalf("stale reads under write-update: %d", s.ReplicaStaleReads)
	}
}

func TestRWLeaseExpiresWithoutWriterTraffic(t *testing.T) {
	// Under RW leases the writer stays silent; once the lease has run out
	// every holder read finds it expired, chases the master (reading the
	// correct value), and re-leases via the refill.
	w := testWorld(t, Config{Ranks: 3, Mode: AGASNM, Engine: EngineDES,
		Coherence: agas.RWLease})
	w.Start()
	lay, err := w.AllocLocal(0, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ReplicateLive(lay, 2); err != nil {
		t.Fatal(err)
	}
	w.MustWait(w.Proc(1).Put(lay.BlockAt(0), []byte{5}))
	if s := w.Stats(); s.ReplicaInvals != 0 || s.ReplicaUpdates != 0 {
		t.Fatalf("writer emitted coherence traffic under leases: %+v", s)
	}
	w.Engine().After(leaseNs, func() {}) // run the clock past the lease
	w.Drain()
	// Reads from holders see the expired lease and fetch the real value.
	for r := 1; r < 3; r++ {
		got := w.MustWait(w.Proc(r).Get(lay.BlockAt(0), 1))
		if got[0] != 5 {
			t.Fatalf("rank %d read %d through expired lease", r, got[0])
		}
	}
	if s := w.Stats(); s.ReplicaStaleReads == 0 {
		t.Fatal("leases never expired")
	}
}

func TestMigrationRehomesReplicaSet(t *testing.T) {
	// Migrating a replicated block moves coherence ownership with it: the
	// destination's directory takes over the replica set, holders learn
	// the new master, and writes there keep the set coherent.
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES})
	w.Start()
	lay, err := w.AllocLocal(0, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := lay.BlockAt(0).Block()
	w.MustWait(w.Proc(0).Put(lay.BlockAt(0), []byte{1}))
	if err := w.ReplicateLive(lay, 2); err != nil { // master 0, holders 1,2
		t.Fatal(err)
	}
	if st := w.MustWait(w.Proc(0).Migrate(lay.BlockAt(0), 3)); MigrateStatus(st) != MigrateOK {
		t.Fatalf("migrate status %d", MigrateStatus(st))
	}
	rs, ok := w.Locality(3).space.Directory().Replicas(b)
	if !ok || rs.Master != 3 || len(rs.Holders) != 2 {
		t.Fatalf("replica set not re-homed at destination: %+v ok=%v", rs, ok)
	}
	if _, ok := w.Locality(0).space.Directory().Replicas(b); ok {
		t.Fatal("old master still owns the replica set")
	}
	// Writes at the new master keep the holders coherent.
	w.MustWait(w.Proc(1).Put(lay.BlockAt(0), []byte{9}))
	w.Drain()
	for r := 0; r < 4; r++ {
		got := w.MustWait(w.Proc(r).Get(lay.BlockAt(0), 1))
		if got[0] != 9 {
			t.Fatalf("rank %d read %d after post-migration write", r, got[0])
		}
	}
	// Migrating onto a holder absorbs that holder's copy into the master.
	if st := w.MustWait(w.Proc(2).Migrate(lay.BlockAt(0), 2)); MigrateStatus(st) != MigrateOK {
		t.Fatalf("migrate-to-holder status %d", MigrateStatus(st))
	}
	rs, ok = w.Locality(2).space.Directory().Replicas(b)
	if !ok || rs.Master != 2 || len(rs.Holders) != 1 || rs.Holders[0] != 1 {
		t.Fatalf("holder absorption wrong: %+v ok=%v", rs, ok)
	}
	w.MustWait(w.Proc(3).Put(lay.BlockAt(0), []byte{4}))
	w.Drain()
	for r := 0; r < 4; r++ {
		got := w.MustWait(w.Proc(r).Get(lay.BlockAt(0), 1))
		if got[0] != 4 {
			t.Fatalf("rank %d read %d after holder-absorbing migration", r, got[0])
		}
	}
}

func TestParcelsStillRunOnceAtMaster(t *testing.T) {
	// Replicas must be invisible to ownership routing: an action on a
	// replicated block executes exactly once, at the master.
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES})
	runs := 0
	where := -1
	probe := w.Register("probe", func(c *Ctx) {
		runs++
		where = c.Rank()
		c.Continue(nil)
	})
	w.Start()
	lay, err := w.AllocLocal(2, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ReplicateLive(lay, w.Ranks()-1); err != nil {
		t.Fatal(err)
	}
	w.MustWait(w.Proc(0).Call(lay.BlockAt(0), probe, nil))
	if runs != 1 || where != 2 {
		t.Fatalf("action ran %d times, at rank %d (want once at master 2)", runs, where)
	}
}

func TestReplicateAfterMigrationUsesCurrentOwner(t *testing.T) {
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES})
	w.Start()
	lay, err := w.AllocLocal(0, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.MustWait(w.Proc(0).Put(lay.BlockAt(0), []byte{7}))
	w.MustWait(w.Proc(0).Migrate(lay.BlockAt(0), 3))
	if err := w.ReplicateLive(lay, w.Ranks()-1); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		got := w.MustWait(w.Proc(r).Get(lay.BlockAt(0), 1))
		if got[0] != 7 {
			t.Fatalf("rank %d read %d after replicate-of-migrated", r, got[0])
		}
	}
}

func TestUnreplicateRestoresPlainOwnership(t *testing.T) {
	w := testWorld(t, Config{Ranks: 3, Mode: AGASNM, Engine: EngineDES})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ReplicateLive(lay, w.Ranks()-1); err != nil {
		t.Fatal(err)
	}
	if err := w.Unreplicate(lay); err != nil {
		t.Fatal(err)
	}
	if n := w.ReplicatedBlocks(); n != 0 {
		t.Fatalf("%d blocks still replicated", n)
	}
	// Replicas gone everywhere except the master.
	for r := 0; r < 3; r++ {
		_, ok := w.Locality(r).Store().Get(lay.BlockAt(0).Block())
		if r == 1 {
			if !ok {
				t.Fatal("master block missing after unreplicate")
			}
			continue
		}
		if ok {
			t.Fatalf("replica survived at rank %d", r)
		}
	}
	w.MustWait(w.Proc(0).Put(lay.BlockAt(0), []byte{5}))
	got := w.MustWait(w.Proc(2).Get(lay.BlockAt(0), 1))
	if got[0] != 5 {
		t.Fatal("write after unreplicate lost")
	}
	// Migration keeps working.
	if st := w.MustWait(w.Proc(0).Migrate(lay.BlockAt(0), 2)); MigrateStatus(st) != MigrateOK {
		t.Fatalf("post-unreplicate migrate status %d", MigrateStatus(st))
	}
	// Unreplicate is idempotent on a layout with no sets left.
	if err := w.Unreplicate(lay); err != nil {
		t.Fatal(err)
	}
}

func TestReplicateLiveAllOrNothing(t *testing.T) {
	// Satellite: a failing install must leave the world untouched — no
	// block of the layout may keep a half-installed replica set.
	w := testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: EngineDES})
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-replicate only the second block, then ask for the whole layout:
	// validation fails on block 1, and block 0 must not gain replicas.
	sub := gas.Layout{Base: lay.BlockAt(1), BSize: lay.BSize, NBlocks: 1, Ranks: lay.Ranks, Dist: gas.DistLocal}
	if err := w.ReplicateLive(sub, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.ReplicateLive(lay, 2); err == nil {
		t.Fatal("replicating an already-replicated block succeeded")
	}
	if n := w.ReplicatedBlocks(); n != 1 {
		t.Fatalf("replicated block count %d after failed install, want 1", n)
	}
	b0 := lay.BlockAt(0).Block()
	for r := 0; r < 4; r++ {
		if blk, ok := w.Locality(r).Store().Get(b0); ok && blk.Replica {
			t.Fatalf("failed install leaked a replica of block 0 at rank %d", r)
		}
	}
	if _, ok := w.Locality(0).space.Directory().Replicas(b0); ok {
		t.Fatal("failed install leaked a directory entry for block 0")
	}

	// Range and capability validation.
	if err := w.ReplicateLive(lay, 4); err == nil {
		t.Fatal("replica count beyond ranks-1 accepted")
	}
	if err := w.ReplicateLive(lay, -1); err == nil {
		t.Fatal("negative replica count accepted")
	}
	if err := w.ReplicateLive(lay, 0); err != nil {
		t.Fatalf("zero replicas should be a no-op, got %v", err)
	}
}

func TestFreeSweepsReplicas(t *testing.T) {
	w := testWorld(t, Config{Ranks: 3, Mode: AGASNM, Engine: EngineDES})
	w.Start()
	lay, err := w.AllocLocal(0, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ReplicateLive(lay, w.Ranks()-1); err != nil {
		t.Fatal(err)
	}
	if err := w.Free(lay); err != nil {
		t.Fatal(err)
	}
	if n := w.ReplicatedBlocks(); n != 0 {
		t.Fatalf("%d blocks still counted replicated after free", n)
	}
	for r := 0; r < 3; r++ {
		for d := uint32(0); d < 2; d++ {
			if _, ok := w.Locality(r).Store().Get(lay.Base.Block() + gas.BlockID(d)); ok {
				t.Fatalf("block copy survived free at rank %d (d=%d)", r, d)
			}
		}
	}
}

func TestConcurrentReadsRaceInvalidations(t *testing.T) {
	// Satellite: -race coverage of readers racing the write/invalidate/
	// refill machinery on the goroutine engine. Writers stamp the whole
	// block with one value; every read must observe some complete stamp
	// (the store serializes whole-block writes), never torn bytes.
	for _, mode := range []Mode{AGASSW, AGASNM} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			const bsize = 64
			w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: EngineGo})
			w.Start()
			lay, err := w.AllocLocal(0, bsize, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.ReplicateLive(lay, 3); err != nil {
				t.Fatal(err)
			}
			g := lay.BlockAt(0)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				stamp := make([]byte, bsize)
				for i := 1; i <= 40; i++ {
					for j := range stamp {
						stamp[j] = byte(i)
					}
					w.MustWait(w.Proc(i%4).Put(g, stamp))
				}
			}()
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < 60; i++ {
						got := w.MustWait(w.Proc(r).Get(g, bsize))
						for j := 1; j < len(got); j++ {
							if got[j] != got[0] {
								t.Errorf("rank %d: torn read: byte %d is %d, byte 0 is %d",
									r, j, got[j], got[0])
								return
							}
						}
					}
				}(r)
			}
			wg.Wait()
		})
	}
}
