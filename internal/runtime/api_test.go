package runtime

import (
	"bytes"
	"fmt"
	"testing"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// TestCallWhenFiresAfterDependency chains a call on a dependency: the
// call is sent from the dependency's OnFire, so it cannot run before the
// dependency fires.
func TestCallWhenFiresAfterDependency(t *testing.T) {
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 2, Mode: mode, Engine: eng})
		echo := w.Register("echo", func(c *Ctx) { c.Continue(c.P.Payload) })
		w.Start()
		lay, err := w.AllocCyclic(0, 64, 2)
		if err != nil {
			t.Fatal(err)
		}
		dep, fut := w.NewFuture(0), w.NewFuture(0)
		dep.OnFire(func([]byte) {
			w.Proc(0).Run(func() {
				w.Locality(0).SendParcel(&parcel.Parcel{Action: echo, Target: lay.BlockAt(1),
					Payload: []byte{5}, CAction: ALCOSet, CTarget: fut.G})
			})
		})
		if fut.Ready() {
			t.Fatal("dependent call ran before the dependency fired")
		}
		// Fire the dependency via a parcel (any locality can).
		w.Proc(1).Invoke(dep.G, ALCOSet, nil)
		v := w.MustWait(fut)
		if len(v) != 1 || v[0] != 5 {
			t.Fatalf("dependent call result %v", v)
		}
	})
}

// TestActionViewsEndWithTheAction: an action that keeps its Ctx and its
// payload past its return finds the parcel half gone — P is nil — and the
// locality half working: a later Get completion reads Rank and sends with
// ContinueTo. In poolable worlds the payload sat in a pooled wire buffer,
// and a msgpoison build shows the kept alias reading poison.
func TestActionViewsEndWithTheAction(t *testing.T) {
	for _, eng := range allEngines {
		for _, force := range []bool{false, true} {
			eng, force := eng, force
			t.Run(fmt.Sprintf("%v/force=%v", eng, force), func(t *testing.T) {
				w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: eng,
					Reliability: ReliabilityConfig{Force: force}})
				sent := bytes.Repeat([]byte{0x5A}, 32)
				done := w.NewFuture(0)
				var lay gas.Layout
				var kept []byte
				var okDuring, pNil, poisoned bool
				var rank int
				stash := w.Register("stash", func(c *Ctx) {
					okDuring = bytes.Equal(c.P.Payload, sent)
					kept = c.P.Payload // deliberately not copied
					c.Get(lay.BlockAt(0), 8, func([]byte) {
						pNil, rank = c.P == nil, c.Rank()
						poisoned = bytes.Equal(kept, bytes.Repeat([]byte{0xEE}, len(sent)))
						c.ContinueTo(done.G, []byte{7})
					})
				})
				w.Start()
				var err error
				if lay, err = w.AllocCyclic(0, 64, 2); err != nil {
					t.Fatal(err)
				}
				w.Proc(0).Invoke(lay.BlockAt(1), stash, sent)
				if v := w.MustWait(done); len(v) != 1 || v[0] != 7 {
					t.Fatalf("ContinueTo from the callback delivered %v", v)
				}
				if !okDuring || !pNil || rank != 1 {
					t.Fatalf("payload intact during the action %v, P nil after %v, Rank after %d (want 1)",
						okDuring, pNil, rank)
				}
				if want := msgPoison && !force; poisoned != want {
					t.Fatalf("kept payload reads poison: %v, want %v (msgpoison %v, force %v)",
						poisoned, want, msgPoison, force)
				}
			})
		}
	}
}

// TestMigrateMany issues six migrations at once, all in flight together.
func TestMigrateMany(t *testing.T) {
	agasMatrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		w := testWorld(t, Config{Ranks: 4, Mode: mode, Engine: eng})
		w.Start()
		lay, err := w.AllocLocal(0, 128, 6)
		if err != nil {
			t.Fatal(err)
		}
		blocks := make([]gas.GVA, 6)
		dests := make([]int, 6)
		futs := make([]*LCORef, 6)
		for d := range blocks {
			blocks[d] = lay.BlockAt(uint32(d))
			dests[d] = 1 + d%3
			futs[d] = w.Proc(0).Migrate(blocks[d], dests[d])
		}
		for i, f := range futs {
			if st := MigrateStatus(w.MustWait(f)); st != MigrateOK {
				t.Fatalf("move %d status %d", i, st)
			}
		}
		for d := range blocks {
			if _, ok := w.Locality(dests[d]).Store().Get(blocks[d].Block()); !ok {
				t.Fatalf("block %d not at rank %d", d, dests[d])
			}
		}
	})
}

func TestTwoTierTopologyThroughRuntime(t *testing.T) {
	lat := func(dst int) netsim.VTime {
		w := testWorld(t, Config{
			Ranks: 8, Mode: AGASNM, Engine: EngineDES,
			Topology: netsim.NewTwoTier(4, 2.0),
		})
		w.Start()
		lay, err := w.AllocCyclic(0, 4096, 8)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(uint32(dst))
		buf := make([]byte, 8)
		w.MustWait(w.Proc(0).Put(g, buf))
		start := w.Now()
		w.MustWait(w.Proc(0).Put(g, buf))
		return w.Now() - start
	}
	intra, inter := lat(1), lat(7)
	if inter <= intra {
		t.Fatalf("inter-pod put (%v) not slower than intra-pod (%v)", inter, intra)
	}
}

func TestCtxAccessors(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES})
	probe := w.Register("probe", func(c *Ctx) {
		if c.Ranks() != 2 || c.World() != w {
			c.l.w.fail("ctx accessors broken")
		}
		if c.Now() < 0 {
			c.l.w.fail("ctx Now broken")
		}
		c.Charge(100) // must not blow up
		// Local on a foreign block must be nil.
		if c.Local(gas.New(1, 99999, 0)) != nil {
			c.l.w.fail("Local returned data for absent block")
		}
		c.Continue(nil)
	})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.MustWait(w.Proc(0).Call(lay.BlockAt(0), probe, nil))
}

// TestLocalPastBlockEnd: on the owner, Ctx.Local of an offset inside a
// 64 B block is the rest of the block, at its end an empty slice, and
// past its end nil, as for an absent block, not a slice-bounds panic.
func TestLocalPastBlockEnd(t *testing.T) {
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: eng})
			probe := w.Register("probe", func(c *Ctx) {
				reply := []byte{0xff}
				if d := c.Local(c.P.Target); d != nil {
					reply[0] = byte(len(d))
				}
				c.Continue(reply)
			})
			w.Start()
			lay, err := w.AllocLocal(1, 64, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				off  uint32
				want byte
			}{{0, 64}, {60, 4}, {64, 0}, {65, 0xff}, {200, 0xff}} {
				v := w.MustWait(w.Proc(0).Call(lay.BlockAt(0).WithOffset(tc.off), probe, nil))
				if len(v) != 1 || v[0] != tc.want {
					t.Errorf("offset %d: Local gave %v, want %d bytes (0xff: nil)", tc.off, v, tc.want)
				}
			}
		})
	}
}

func TestContinueWithoutContinuationIsNoop(t *testing.T) {
	w := testWorld(t, Config{Ranks: 2, Mode: PGAS, Engine: EngineDES})
	fire := w.Register("fire", func(c *Ctx) {
		c.Continue([]byte{1}) // parcel has no continuation; must not send
	})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Proc(0).Invoke(lay.BlockAt(0), fire, nil)
	w.Drain()
	// Nothing to assert beyond "no panic / no stray parcel error".
}
