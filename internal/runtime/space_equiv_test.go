package runtime

import (
	"fmt"
	"testing"

	"nmvgas/internal/parcel"
)

// TestAddressSpaceEquivalence pins the per-mode protocol behavior across
// the address-space strategy refactor: a fixed, fully serialized workload
// must produce exactly the golden runtime counters in every mode, on both
// engines. The goldens were captured from the pre-refactor mode-switch
// implementation, so any drift in translation, forwarding, repair, or
// migration behavior shows up as a counter diff.

// equivCounters is the engine-independent slice of WorldStats the test
// compares. NetForwards and NetNacks are the NIC core's own counters:
// both engines drive the one core, and every stale send in the workload
// is a first touch on a waited op's critical path, so the forward and
// NACK counts do not depend on when a fire-and-forget table push lands.
type equivCounters struct {
	ParcelsSent  int64
	ParcelsRun   int64
	LocalRuns    int64
	HostForwards int64
	HostNacks    int64
	NICNacks     int64
	Queued       int64
	SWLookups    int64
	PutOps       int64
	GetOps       int64
	PutBytes     int64
	GetBytes     int64
	Migrations   int64
	NetForwards  uint64
	NetNacks     uint64
}

func (c equivCounters) String() string {
	return fmt.Sprintf("{ParcelsSent: %d, ParcelsRun: %d, LocalRuns: %d, HostForwards: %d, HostNacks: %d, NICNacks: %d, Queued: %d, SWLookups: %d, PutOps: %d, GetOps: %d, PutBytes: %d, GetBytes: %d, Migrations: %d, NetForwards: %d, NetNacks: %d}",
		c.ParcelsSent, c.ParcelsRun, c.LocalRuns, c.HostForwards, c.HostNacks,
		c.NICNacks, c.Queued, c.SWLookups, c.PutOps, c.GetOps, c.PutBytes,
		c.GetBytes, c.Migrations, c.NetForwards, c.NetNacks)
}

// equivOf takes the compared slice out of a stats snapshot.
func equivOf(s WorldStats) equivCounters {
	return equivCounters{
		ParcelsSent:  s.ParcelsSent,
		ParcelsRun:   s.ParcelsRun,
		LocalRuns:    s.LocalRuns,
		HostForwards: s.HostForwards,
		HostNacks:    s.HostNacks,
		NICNacks:     s.NICNacks,
		Queued:       s.Queued,
		SWLookups:    s.SWLookups,
		PutOps:       s.PutOps,
		GetOps:       s.GetOps,
		PutBytes:     s.PutBytes,
		GetBytes:     s.GetBytes,
		Migrations:   s.Migrations,
		NetForwards:  s.NetForwards,
		NetNacks:     s.NetNacks,
	}
}

// equivGolden holds the expected counters per mode, identical across
// engines because the workload serializes every operation and every
// stale-translation repair sits on a waited op's critical path. Captured
// from the pre-refactor mode-switch implementation at PR 1; NetForwards
// and NetNacks from the DES fabric at PR 13 (the goroutine engine
// reported zeros until it drove the shared NIC core).
var equivGolden = map[Mode]equivCounters{
	PGAS: {ParcelsSent: 66, ParcelsRun: 66, LocalRuns: 18,
		PutOps: 4, GetOps: 4, PutBytes: 64, GetBytes: 32},
	AGASSW: {ParcelsSent: 121, ParcelsRun: 121, LocalRuns: 33,
		HostForwards: 8, HostNacks: 2, SWLookups: 100,
		PutOps: 6, GetOps: 5, PutBytes: 80, GetBytes: 40, Migrations: 5},
	AGASNM: {ParcelsSent: 121, ParcelsRun: 121, LocalRuns: 33,
		PutOps: 6, GetOps: 5, PutBytes: 80, GetBytes: 40, Migrations: 5,
		NetForwards: 9},
}

// runEquivWorkload drives a deterministic protocol workout: fan-out
// parcels (local and remote), one-sided puts and gets, and — in the
// migrating modes — a migration wave followed by stale-translation
// traffic that exercises each mode's repair path. Every operation is
// waited, so the counter totals are exact, not racy.
func runEquivWorkload(t *testing.T, mode Mode, eng EngineKind, mutate ...func(*Config)) (equivCounters, *World) {
	t.Helper()
	cfg := Config{Ranks: 4, Mode: mode, Engine: eng}
	for _, fn := range mutate {
		fn(&cfg)
	}
	w := testWorld(t, cfg)
	return equivProgram(t, w), w
}

// equivProgram is runEquivWorkload's program on a 4-rank world that has
// not started yet, so a caller can install a tracer first.
func equivProgram(t *testing.T, w *World) equivCounters {
	t.Helper()
	got, err := equivRun(w)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// equivRun is equivProgram returning its first failure instead of
// failing a test, for the virtual-time trials (bubble_test.go).
func equivRun(w *World) (equivCounters, error) {
	ranks := w.Ranks()
	const nblocks = 8
	mode := w.Config().Mode
	incr := w.Register("incr", func(c *Ctx) {
		data := c.Local(c.P.Target)
		v := parcel.U64(data, 0)
		copy(data, parcel.PutU64(nil, v+1))
		c.Continue(nil)
	})
	w.Start()
	lay, err := w.AllocCyclic(0, 128, nblocks)
	if err != nil {
		return equivCounters{}, err
	}

	// Phase 1: every rank touches every block with an action.
	for r := 0; r < ranks; r++ {
		for d := uint32(0); d < nblocks; d++ {
			w.MustWait(w.Proc(r).Call(lay.BlockAt(d), incr, nil))
		}
	}
	// Phase 2: one-sided traffic, local and remote targets.
	for r := 0; r < ranks; r++ {
		w.MustWait(w.Proc(r).Put(lay.BlockAt(uint32(r+1)%nblocks), make([]byte, 16)))
		v := w.MustWait(w.Proc(r).Get(lay.BlockAt(uint32(r+3)%nblocks), 8))
		if len(v) != 8 {
			return equivCounters{}, fmt.Errorf("get returned %d bytes", len(v))
		}
	}
	// Phase 3 (migrating modes): move the first four blocks one rank to
	// the right, then hit each exactly once per rank with a parcel so
	// every send is a first touch of stale translation state — the counts
	// are then independent of when fire-and-forget corrections land,
	// which keeps the goldens engine-independent. Finally, bounce a
	// one-sided op off a freshly migrated block to exercise the stale
	// one-sided repair path on the op's own critical path.
	if mode != PGAS {
		for d := uint32(0); d < 4; d++ {
			st := w.MustWait(w.Proc(0).Migrate(lay.BlockAt(d), (int(d)+1)%ranks))
			if MigrateStatus(st) != MigrateOK {
				return equivCounters{}, fmt.Errorf("migrate block %d: status %d", d, MigrateStatus(st))
			}
		}
		for r := 0; r < ranks; r++ {
			for d := uint32(0); d < 4; d++ {
				w.MustWait(w.Proc(r).Call(lay.BlockAt(d), incr, nil))
			}
		}
		st := w.MustWait(w.Proc(1).Migrate(lay.BlockAt(5), 3))
		if MigrateStatus(st) != MigrateOK {
			return equivCounters{}, fmt.Errorf("migrate block 5: status %d", MigrateStatus(st))
		}
		// Stale put: repaired by host NACK (sw) or in-network forward
		// (nm); the repair completes before the future fires, so the
		// follow-up get and put go direct off the corrected state.
		w.MustWait(w.Proc(0).Put(lay.BlockAt(5), make([]byte, 8)))
		w.MustWait(w.Proc(0).Get(lay.BlockAt(5), 8))
		w.MustWait(w.Proc(0).Put(lay.BlockAt(5), make([]byte, 8)))
	} else {
		// Static addressing refuses migration with a status, not a hang.
		st := w.MustWait(w.Proc(0).Migrate(lay.BlockAt(0), 1))
		if MigrateStatus(st) != MigratePinned {
			return equivCounters{}, fmt.Errorf("pgas migrate: status %d, want MigratePinned", MigrateStatus(st))
		}
	}
	if err := w.Free(lay); err != nil {
		return equivCounters{}, err
	}
	w.Stop()

	return equivOf(w.Stats()), nil
}

// replEquivCounters extends the golden slice with the replica coherence
// counters that are deterministic for the serialized replicated workload
// (reads happen only on settled replica state, so the stale-read count
// is pinned at zero rather than racy).
type replEquivCounters struct {
	equivCounters
	ReplicaReads      int64
	ReplicaStaleReads int64
	ReplicaInvals     int64
	ReplicaFills      int64
}

func (c replEquivCounters) String() string {
	return fmt.Sprintf("%v + {ReplicaReads: %d, ReplicaStaleReads: %d, ReplicaInvals: %d, ReplicaFills: %d}",
		c.equivCounters, c.ReplicaReads, c.ReplicaStaleReads, c.ReplicaInvals, c.ReplicaFills)
}

// replGolden pins the replicated workload per mode, identical across
// engines (the goroutine transport models the same crossbar the DES
// fabric simulates, so read-target choice agrees).
var replGolden = map[Mode]replEquivCounters{
	PGAS: {equivCounters: equivCounters{LocalRuns: 25,
		PutOps: 9, GetOps: 33, PutBytes: 72, GetBytes: 264},
		ReplicaReads: 22, ReplicaInvals: 8, ReplicaFills: 8},
	AGASSW: {equivCounters: equivCounters{ParcelsSent: 5, ParcelsRun: 5, LocalRuns: 40,
		HostNacks: 4, SWLookups: 36,
		PutOps: 10, GetOps: 49, PutBytes: 80, GetBytes: 392, Migrations: 1},
		ReplicaReads: 33, ReplicaInvals: 10, ReplicaFills: 10},
	AGASNM: {equivCounters: equivCounters{ParcelsSent: 5, ParcelsRun: 5, LocalRuns: 40,
		PutOps: 10, GetOps: 49, PutBytes: 80, GetBytes: 392, Migrations: 1,
		NetForwards: 2},
		ReplicaReads: 33, ReplicaInvals: 10, ReplicaFills: 10},
}

// settleRepl drains in-flight coherence traffic: DES empties the event
// queue, the goroutine engine polls the aggregate counters up to pred.
func settleRepl(t *testing.T, w *World, pred func(WorldStats) bool) {
	t.Helper()
	settleCoherence(t, w, pred)
}

// runReplEquivWorkload is the replicated analogue of runEquivWorkload: a
// fixed serialized workload over a live replica set — reads before and
// after coherent writes, a master migration that re-homes the set, and a
// final unreplicate — with every read's value checked, so the goldens
// pin both the counters and the data the application observed.
func runReplEquivWorkload(t *testing.T, mode Mode, eng EngineKind, mutate ...func(*Config)) (replEquivCounters, *World) {
	t.Helper()
	cfg := Config{Ranks: 4, Mode: mode, Engine: eng}
	for _, fn := range mutate {
		fn(&cfg)
	}
	w := testWorld(t, cfg)
	return replEquivProgram(t, w), w
}

// replEquivProgram is runReplEquivWorkload's program on a 4-rank world
// that has not started yet.
func replEquivProgram(t *testing.T, w *World) replEquivCounters {
	t.Helper()
	const ranks = 4
	const nblocks = 4
	mode := w.Config().Mode
	w.Start()
	lay, err := w.AllocCyclic(0, 64, nblocks)
	if err != nil {
		t.Fatal(err)
	}
	stamp := func(d uint32, v byte) []byte {
		buf := make([]byte, 8)
		for i := range buf {
			buf[i] = v + byte(d)
		}
		return buf
	}
	readAll := func(phase string, want func(d uint32) byte) {
		for r := 0; r < ranks; r++ {
			for d := uint32(0); d < nblocks; d++ {
				got := w.MustWait(w.Proc(r).Get(lay.BlockAt(d), 8))
				if got[0] != want(d) || got[7] != want(d) {
					t.Fatalf("%s: rank %d read %v from block %d, want %d", phase, r, got, d, want(d))
				}
			}
		}
	}

	// Seed, then go live with 2 replicas per block.
	for d := uint32(0); d < nblocks; d++ {
		w.MustWait(w.Proc(0).Put(lay.BlockAt(d), stamp(d, 10)))
	}
	if err := w.ReplicateLive(lay, 2); err != nil {
		t.Fatal(err)
	}
	// Phase A: every rank reads every block off the settled replica set.
	readAll("A", func(d uint32) byte { return 10 + byte(d) })
	// Phase B: one coherent write per block, settle, re-read everywhere.
	for d := uint32(0); d < nblocks; d++ {
		w.MustWait(w.Proc((int(d)+1)%ranks).Put(lay.BlockAt(d), stamp(d, 50)))
	}
	settleRepl(t, w, func(s WorldStats) bool {
		return s.ReplicaInvals >= 8 && s.ReplicaFills >= 8
	})
	readAll("B", func(d uint32) byte { return 50 + byte(d) })
	// Phase C (migrating modes): move block 0's master — the replica set
	// re-homes — then write at the new master and re-read everywhere.
	if mode != PGAS {
		if st := w.MustWait(w.Proc(0).Migrate(lay.BlockAt(0), 3)); MigrateStatus(st) != MigrateOK {
			t.Fatalf("migrate: status %d", MigrateStatus(st))
		}
		w.MustWait(w.Proc(1).Put(lay.BlockAt(0), stamp(0, 90)))
		settleRepl(t, w, func(s WorldStats) bool {
			return s.ReplicaInvals >= 10 && s.ReplicaFills >= 10
		})
		readAll("C", func(d uint32) byte {
			if d == 0 {
				return 90
			}
			return 50 + byte(d)
		})
	}
	// Unreplicate: plain ownership again, one write-read to prove it.
	if err := w.Unreplicate(lay); err != nil {
		t.Fatal(err)
	}
	w.MustWait(w.Proc(2).Put(lay.BlockAt(1), stamp(1, 120)))
	if got := w.MustWait(w.Proc(3).Get(lay.BlockAt(1), 8)); got[0] != 121 {
		t.Fatalf("post-unreplicate read %v", got)
	}
	if err := w.Free(lay); err != nil {
		t.Fatal(err)
	}
	w.Stop()

	s := w.Stats()
	return replEquivCounters{
		equivCounters:     equivOf(s),
		ReplicaReads:      s.ReplicaReads,
		ReplicaStaleReads: s.ReplicaStaleReads,
		ReplicaInvals:     s.ReplicaInvals,
		ReplicaFills:      s.ReplicaFills,
	}
}

// TestReplicatedEquivalence is TestAddressSpaceEquivalence's replicated
// sibling: the same golden-counter discipline applied to a layout with a
// live replica set, across all modes and both engines.
func TestReplicatedEquivalence(t *testing.T) {
	for _, mode := range allModes {
		for _, eng := range allEngines {
			mode, eng := mode, eng
			t.Run(mode.String()+"/"+eng.String(), func(t *testing.T) {
				got, _ := runReplEquivWorkload(t, mode, eng)
				want, ok := replGolden[mode]
				if !ok {
					t.Logf("GOLDEN %v: %+v", mode, got)
					t.Skip("no golden recorded for mode")
				}
				if got != want {
					t.Errorf("replicated counters diverged\n got: %+v\nwant: %+v", got, want)
				}
			})
		}
	}
}

func TestAddressSpaceEquivalence(t *testing.T) {
	for _, mode := range allModes {
		for _, eng := range allEngines {
			mode, eng := mode, eng
			t.Run(mode.String()+"/"+eng.String(), func(t *testing.T) {
				got, _ := runEquivWorkload(t, mode, eng)
				want, ok := equivGolden[mode]
				if !ok {
					t.Logf("GOLDEN %v: %v", mode, got)
					t.Skip("no golden recorded for mode")
				}
				if got != want {
					t.Errorf("counters diverged from pre-refactor golden\n got: %v\nwant: %v", got, want)
				}
			})
		}
	}
}
