package loadbal

import (
	"sync"
	"testing"
	"time"

	"nmvgas/internal/netsim"
	"nmvgas/internal/runtime"
)

func TestPolicyMigratesTowardDominantAccessor(t *testing.T) {
	w := newWorld(t, runtime.AGASNM)
	w.Start()
	lay, err := w.AllocLocal(0, 64, 4) // all blocks on rank 0
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPolicy(w, PolicyConfig{Layout: lay, MinSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 2 hammers block 1; rank 0 (the owner) touches it a little —
	// not enough to defeat 2× dominance.
	for i := 0; i < 40; i++ {
		w.MustWait(w.Proc(2).Put(lay.BlockAt(1), []byte{1}))
	}
	for i := 0; i < 5; i++ {
		w.MustWait(w.Proc(0).Put(lay.BlockAt(1), []byte{1}))
	}
	rep, err := p.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Acted || rep.Moves != 1 {
		t.Fatalf("expected 1 move, got %+v", rep)
	}
	if _, ok := w.Locality(2).Store().Get(lay.BlockAt(1).Block()); !ok {
		t.Fatal("hot block did not land at its dominant accessor")
	}
	if st := p.Stats(); st.Moves != 1 || st.Epochs != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPolicyHysteresisKeepsOwnerLocalBlocks(t *testing.T) {
	w := newWorld(t, runtime.AGASNM)
	w.Start()
	lay, err := w.AllocLocal(0, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPolicy(w, PolicyConfig{Layout: lay, MinSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Remote traffic exists but the owner drives a comparable share:
	// 2× dominance is not met, the block stays put.
	for i := 0; i < 20; i++ {
		w.MustWait(w.Proc(1).Put(lay.BlockAt(0), []byte{1}))
	}
	for i := 0; i < 15; i++ {
		w.MustWait(w.Proc(0).Put(lay.BlockAt(0), []byte{1}))
	}
	rep, err := p.Step()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moves != 0 {
		t.Fatalf("hysteresis failed: %d moves for a 20:15 split", rep.Moves)
	}
}

func TestPolicyBudgetAndCooldown(t *testing.T) {
	w := newWorld(t, runtime.AGASNM)
	w.Start()
	lay, err := w.AllocLocal(0, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPolicy(w, PolicyConfig{Layout: lay, MinSamples: 8, MoveBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	hammer := func() {
		for d := uint32(0); d < 8; d++ {
			for i := 0; i < 10; i++ {
				w.MustWait(w.Proc(1+int(d)%3).Put(lay.BlockAt(d), []byte{1}))
			}
		}
	}
	hammer()
	rep, err := p.Step()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moves != 2 {
		t.Fatalf("budget 2 but %d moves", rep.Moves)
	}
	if p.Stats().Deferred == 0 {
		t.Fatal("over-budget hot blocks not recorded as deferred")
	}
	// The two moved blocks are on cooldown: hammering them from a new
	// rank must not bounce them for cooldown epochs.
	moved := make(map[uint32]bool)
	for d := uint32(0); d < 8; d++ {
		if _, ok := w.Locality(lay.HomeOf(d)).Store().Get(lay.BlockAt(d).Block()); !ok {
			moved[d] = true
		}
	}
	var bounce uint32
	for d := range moved {
		bounce = d
		break
	}
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i < 40; i++ {
			w.MustWait(w.Proc(3).Put(lay.BlockAt(bounce), []byte{1}))
		}
		rep, err = p.Step()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w.Locality(3).Store().Get(lay.BlockAt(bounce).Block()); ok {
			t.Fatalf("cooldown violated: block bounced %d epoch(s) after moving", epoch+1)
		}
	}
	// Cooldown expired: now the move is allowed.
	for i := 0; i < 40; i++ {
		w.MustWait(w.Proc(3).Put(lay.BlockAt(bounce), []byte{1}))
	}
	if _, err = p.Step(); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Locality(3).Store().Get(lay.BlockAt(bounce).Block()); !ok {
		t.Fatal("block never moved after cooldown expired")
	}
}

func TestPolicyAdaptiveReplication(t *testing.T) {
	w := newWorld(t, runtime.AGASNM)
	w.Start()
	lay, err := w.AllocLocal(0, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	w.MustWait(w.Proc(0).Put(lay.BlockAt(1), []byte{7}))
	p, err := NewPolicy(w, PolicyConfig{Layout: lay, MinSamples: 8, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.HeatEpoch() // discard the setup put

	// Three ranks read block 1: read-dominated, spread audience →
	// replicate, don't migrate.
	readAll := func() {
		for i := 0; i < 10; i++ {
			for _, r := range []int{1, 2, 3} {
				w.MustWait(w.Proc(r).Get(lay.BlockAt(1), 1))
			}
		}
	}
	readAll()
	rep, err := p.Step()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replications != 1 || rep.Moves != 0 {
		t.Fatalf("expected 1 replication and no moves, got %+v", rep)
	}
	if w.ReplicatedBlocks() != 1 {
		t.Fatalf("replica set not installed: %d", w.ReplicatedBlocks())
	}
	// Replica-hit reads now count as heat at the holders, and the block
	// stays replicated while read traffic continues.
	readAll()
	if rep, err = p.Step(); err != nil {
		t.Fatal(err)
	}
	if rep.Teardowns != 0 || w.ReplicatedBlocks() != 1 {
		t.Fatalf("replicated block torn down under live read traffic: %+v", rep)
	}
	if w.Stats().ReplicaReads == 0 {
		t.Fatal("no reads served by replicas after replication")
	}

	// The block goes cold (other blocks absorb the traffic): the next
	// acted epoch tears the set down.
	for i := 0; i < 30; i++ {
		w.MustWait(w.Proc(0).Put(lay.BlockAt(2), []byte{1}))
	}
	if rep, err = p.Step(); err != nil {
		t.Fatal(err)
	}
	if rep.Teardowns != 1 || w.ReplicatedBlocks() != 0 {
		t.Fatalf("cold replicated block not torn down: %+v, %d sets", rep, w.ReplicatedBlocks())
	}
}

func TestPolicyIdleEpochSkips(t *testing.T) {
	w := newWorld(t, runtime.AGASNM)
	w.Start()
	lay, err := w.AllocLocal(0, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPolicy(w, PolicyConfig{Layout: lay})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Step()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acted || rep.Moves != 0 {
		t.Fatalf("idle epoch acted: %+v", rep)
	}
	if p.Stats().IdleEpochs != 1 {
		t.Fatalf("stats %+v", p.Stats())
	}
}

func TestPolicyRejectsUnsuitableWorlds(t *testing.T) {
	// No heat tracker.
	w1, err := runtime.NewWorld(runtime.Config{Ranks: 2, Mode: runtime.AGASNM, Engine: runtime.EngineDES})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w1.Stop)
	w1.Start()
	lay1, err := w1.AllocCyclic(0, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPolicy(w1, PolicyConfig{Layout: lay1}); err == nil {
		t.Fatal("policy accepted a world without heat tracking")
	}
	// Static address space.
	w2, err := runtime.NewWorld(runtime.Config{Ranks: 2, Mode: runtime.PGAS, Engine: runtime.EngineDES,
		Heat: runtime.HeatConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w2.Stop)
	w2.Start()
	lay2, err := w2.AllocCyclic(0, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPolicy(w2, PolicyConfig{Layout: lay2}); err == nil {
		t.Fatal("policy accepted a static address space")
	}
}

// TestPolicyPulseDriven runs the same dominant-accessor scenario with no
// driver epoch loop at all: the policy is attached to the runtime pulse
// and must act on its own cadence while the workload merely drains.
func TestPolicyPulseDriven(t *testing.T) {
	w, err := runtime.NewWorld(runtime.Config{
		Ranks: 4, Mode: runtime.AGASNM, Engine: runtime.EngineDES,
		Heat:  runtime.HeatConfig{Enabled: true},
		Pulse: runtime.PulseConfig{Enabled: true, Period: 200 * netsim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	w.Start()
	lay, err := w.AllocLocal(0, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPolicy(w, PolicyConfig{Layout: lay, MinSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	p.AttachPulse(1)
	// Rank 2 hammers block 1; no Step/StepAsync call appears anywhere in
	// this test — only pulse ticks may run the policy.
	for round := 0; round < 20 && p.Stats().Moves == 0; round++ {
		for i := 0; i < 40; i++ {
			w.MustWait(w.Proc(2).Put(lay.BlockAt(1), []byte{1}))
		}
		w.Drain()
	}
	if st := p.Stats(); st.Moves == 0 {
		t.Fatalf("pulse-driven policy never moved the hot block: %+v", st)
	}
	w.Drain()
	if _, ok := w.Locality(2).Store().Get(lay.BlockAt(1).Block()); !ok {
		t.Fatal("hot block did not land at its dominant accessor")
	}
	if st := p.Stats(); st.Epochs == 0 {
		t.Fatalf("no pulse epoch recorded: %+v", st)
	}
}

// TestPolicyPulseOnGoEngineUnderMigrations attaches the policy to the
// pulse of a goroutine-engine world, where each tick runs in world
// context, beside drivers that heat the managed blocks and migrate them
// between ranks. Every owner lookup the policy makes reads another
// rank's directory, which its home's migrations write, so it must go
// through the home's token (World.Owner): under -race a direct read is a
// reported race.
func TestPolicyPulseOnGoEngineUnderMigrations(t *testing.T) {
	for _, mode := range []runtime.Mode{runtime.AGASNM, runtime.AGASSW} {
		t.Run(mode.String(), func(t *testing.T) {
			w, err := runtime.NewWorld(runtime.Config{
				Ranks: 4, Mode: mode, Engine: runtime.EngineGo,
				Heat: runtime.HeatConfig{Enabled: true},
				// 10 µs simulated × the goroutine engine's time scale: a
				// tick every 100 µs of wall time.
				Pulse: runtime.PulseConfig{Enabled: true, Period: 10 * netsim.Microsecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Stop)
			w.Start()
			lay, err := w.AllocLocal(0, 64, 8)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPolicy(w, PolicyConfig{Layout: lay, MinSamples: 8})
			if err != nil {
				t.Fatal(err)
			}
			p.AttachPulse(1)
			deadline := time.Now().Add(200 * time.Millisecond)
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // blocks hop between ranks
				defer wg.Done()
				for i := 0; time.Now().Before(deadline); i++ {
					if _, err := w.Wait(w.Proc(1).Migrate(lay.BlockAt(uint32(i)%lay.NBlocks), i%4)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() { // rank 2's traffic heats them
				defer wg.Done()
				for i := 0; time.Now().Before(deadline); i++ {
					if _, err := w.Wait(w.Proc(2).Put(lay.BlockAt(uint32(i)%lay.NBlocks), []byte{1})); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			acted := func() bool { st := p.Stats(); return st.Epochs > st.IdleEpochs }
			for start := time.Now(); !acted() && time.Since(start) < 5*time.Second; {
				time.Sleep(time.Millisecond)
			}
			if !acted() {
				t.Fatalf("the pulse never ran an epoch that looked up owners: %+v", p.Stats())
			}
		})
	}
}
