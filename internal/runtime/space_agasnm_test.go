package runtime

import (
	"fmt"
	"testing"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// The network-managed space writes its own NIC at each protocol point;
// these tests read the NICs of a running agas-nm world on both engines.

// eachEngine runs fn on a fresh 4-rank agas-nm world per engine.
func eachEngine(t *testing.T, pol netsim.Policy, fn func(t *testing.T, w *World)) {
	t.Helper()
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			fn(t, testWorld(t, Config{Ranks: 4, Mode: AGASNM, Engine: eng, Policy: pol}))
		})
	}
}

// nicRoute reads rank's authoritative NIC route on the rank's token.
func nicRoute(w *World, rank int, b gas.BlockID) (owner int, ok bool) {
	w.claimNIC(rank, func(st *netsim.TransState) { owner, ok = st.Route(b) })
	return owner, ok
}

// eachMigration walks one block through three migrations on a running
// agas-nm world, on each engine, and calls check after each with the
// block, its old owner and its new one. Before each move to rank 2 the
// new owner's NIC is given a stale table entry to prove it is cleared.
func eachMigration(t *testing.T, check func(t *testing.T, w *World, b gas.BlockID, from, to int)) {
	t.Helper()
	eachEngine(t, netsim.Policy{}, func(t *testing.T, w *World) {
		w.Start()
		lay, err := w.AllocLocal(1, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		g, b := lay.BlockAt(0), lay.BlockAt(0).Block()
		for _, step := range []struct{ from, to int }{
			{1, 2}, // home is the old owner
			{2, 3}, // home commit, old owner's forward
			{3, 2}, // back to a NIC holding a route
		} {
			if step.to == 2 {
				w.claimNIC(2, func(st *netsim.TransState) { st.Table.Update(b, 3) })
			}
			if st := MigrateStatus(w.MustWait(w.Proc(0).Migrate(g, step.to))); st != MigrateOK {
				t.Fatalf("migrate to %d: status %d", step.to, st)
			}
			check(t, w, b, step.from, step.to)
		}
	})
}

// TestNMCommitInstallsHomeRoute: after a migration the home's NIC routes
// to the new owner.
func TestNMCommitInstallsHomeRoute(t *testing.T) {
	eachMigration(t, func(t *testing.T, w *World, b gas.BlockID, from, to int) {
		if o, ok := nicRoute(w, 1, b); !ok || o != to {
			t.Fatalf("migrate to %d: home route = %d,%v", to, o, ok)
		}
	})
}

// TestNMMigrateTombstonesOldOwner: after a migration the old owner's NIC
// routes to the new owner.
func TestNMMigrateTombstonesOldOwner(t *testing.T) {
	eachMigration(t, func(t *testing.T, w *World, b gas.BlockID, from, to int) {
		if o, ok := nicRoute(w, from, b); !ok || o != to {
			t.Fatalf("migrate %d->%d: old owner's route = %d,%v", from, to, o, ok)
		}
	})
}

// TestNMMigrateClearsNewOwner: after a migration the new owner's NIC holds
// no route or table entry for the block, even one an earlier visit left.
func TestNMMigrateClearsNewOwner(t *testing.T) {
	eachMigration(t, func(t *testing.T, w *World, b gas.BlockID, from, to int) {
		if o, ok := nicRoute(w, to, b); ok {
			t.Fatalf("migrate to %d: the new owner holds a route to %d", to, o)
		}
		if o, ok := peekNICTable(w, to, b); ok {
			t.Fatalf("migrate to %d: the new owner holds table entry %d", to, o)
		}
	})
}

// TestNMBroadcastUpdatesFillEveryTable: under Policy.BroadcastUpdates a
// commit reaches every other NIC's table in one CtlTableBatch each; with
// the default policy no NIC receives one.
func TestNMBroadcastUpdatesFillEveryTable(t *testing.T) {
	for _, broadcast := range []bool{false, true} {
		t.Run(fmt.Sprintf("broadcast=%v", broadcast), func(t *testing.T) {
			eachEngine(t, netsim.Policy{BroadcastUpdates: broadcast}, func(t *testing.T, w *World) {
				w.Start()
				lay, err := w.AllocLocal(1, 64, 1)
				if err != nil {
					t.Fatal(err)
				}
				b := lay.BlockAt(0).Block()
				var before [4]uint64
				for r := range before {
					before[r] = w.net.Stats(r)[netsim.CntTableUpdatesRx]
				}
				w.MustWait(w.Proc(0).Migrate(lay.BlockAt(0), 3))
				want := uint64(0)
				if broadcast {
					want = 1
				}
				settleCoherence(t, w, func(WorldStats) bool {
					for r := range before {
						if r != 1 && w.net.Stats(r)[netsim.CntTableUpdatesRx]-before[r] < want {
							return false
						}
					}
					return true
				})
				for r := range before {
					got := w.net.Stats(r)[netsim.CntTableUpdatesRx] - before[r]
					o, ok := peekNICTable(w, r, b)
					switch {
					case r == 1 && got != 0:
						t.Errorf("home NIC received %d table pushes", got)
					case r != 1 && got != want:
						t.Errorf("broadcast=%v: rank %d received %d table pushes, want %d", broadcast, r, got, want)
					case r != 1 && broadcast && (!ok || o != 3):
						t.Errorf("rank %d table entry = %d,%v after broadcast, want 3", r, o, ok)
					}
				}
			})
		})
	}
}

// TestNMFreeSweepsEveryNIC: after Free no NIC holds a route or a table
// entry for the freed block.
func TestNMFreeSweepsEveryNIC(t *testing.T) {
	eachEngine(t, netsim.Policy{}, func(t *testing.T, w *World) {
		w.Start()
		lay, err := w.AllocLocal(1, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		b := lay.BlockAt(0).Block()
		w.MustWait(w.Proc(0).Migrate(lay.BlockAt(0), 2))
		for r := 0; r < 4; r++ {
			w.claimNIC(r, func(st *netsim.TransState) {
				st.InstallRoute(b, (r+1)%4)
				st.Table.Update(b, (r+1)%4)
			})
		}
		if err := w.Free(lay); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 4; r++ {
			if o, ok := nicRoute(w, r, b); ok {
				t.Errorf("rank %d route to %d survived Free", r, o)
			}
			if o, ok := peekNICTable(w, r, b); ok {
				t.Errorf("rank %d table entry %d survived Free", r, o)
			}
		}
	})
}

// TestNMThirdPartySendForwardsOnce: after a commit, a send from a rank
// that never saw the block reaches the new owner with one in-network
// forward (at the home's NIC), and the pushed correction makes the next
// send direct.
func TestNMThirdPartySendForwardsOnce(t *testing.T) {
	eachEngine(t, netsim.Policy{}, func(t *testing.T, w *World) {
		var ranAt []int
		echo := w.Register("echo", func(c *Ctx) {
			ranAt = append(ranAt, c.Rank())
			c.Continue(nil)
		})
		w.Start()
		lay, err := w.AllocLocal(1, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := lay.BlockAt(0)
		w.MustWait(w.Proc(0).Migrate(g, 3))
		for i, want := range []uint64{1, 0} {
			before := w.Stats().NetForwards
			w.MustWait(w.Proc(0).Call(g, echo, nil))
			if got := w.Stats().NetForwards - before; got != want {
				t.Fatalf("send %d: %d in-network forwards, want %d", i, got, want)
			}
		}
		if len(ranAt) != 2 || ranAt[0] != 3 || ranAt[1] != 3 {
			t.Fatalf("echo ran at %v, want [3 3]", ranAt)
		}
	})
}
