package nmagas

import (
	"testing"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

func newFab(ranks int) (*netsim.Engine, *netsim.Fabric, [][]gas.BlockID) {
	eng := netsim.NewEngine()
	fab := netsim.NewFabric(eng, netsim.FabricConfig{
		Ranks:      ranks,
		Model:      netsim.DefaultModel(),
		GVARouting: true,
		Policy:     netsim.Policy{},
	})
	resident := make([][]gas.BlockID, ranks)
	for r := 0; r < ranks; r++ {
		r := r
		fab.NIC(r).Resident = func(b gas.BlockID) bool {
			for _, rb := range resident[r] {
				if rb == b {
					return true
				}
			}
			return false
		}
		fab.NIC(r).HostDeliver = func(m *netsim.Message) {}
		fab.NIC(r).DMADeliver = func(m *netsim.Message) {}
	}
	return eng, fab, resident
}

func TestMirrorCommitInstallsHomeRoute(t *testing.T) {
	_, fab, _ := newFab(4)
	m := NewMirror(fab, UpdateOnForward)
	m.CommitAtHome(1, 50, 3)
	if o, ok := fab.NIC(1).Route(50); !ok || o != 3 {
		t.Fatalf("home route = %d,%v", o, ok)
	}
	ins, bc := m.Stats()
	if ins != 1 || bc != 0 {
		t.Fatalf("stats installs=%d broadcasts=%d", ins, bc)
	}
}

func TestMirrorTombstone(t *testing.T) {
	_, fab, _ := newFab(4)
	m := NewMirror(fab, UpdateOnForward)
	m.TombstoneAtOldOwner(2, 50, 3)
	if o, ok := fab.NIC(2).Route(50); !ok || o != 3 {
		t.Fatalf("tombstone route = %d,%v", o, ok)
	}
}

func TestMirrorClearResident(t *testing.T) {
	_, fab, _ := newFab(4)
	m := NewMirror(fab, UpdateOnForward)
	fab.NIC(3).InstallRoute(50, 1)
	fab.NIC(3).Table.Update(50, 1)
	m.ClearResident(3, 50)
	if _, ok := fab.NIC(3).Route(50); ok {
		t.Fatal("route survived ClearResident")
	}
	if _, ok := fab.NIC(3).Table.Peek(50); ok {
		t.Fatal("table entry survived ClearResident")
	}
}

func TestMirrorBroadcastPolicy(t *testing.T) {
	eng, fab, _ := newFab(4)
	m := NewMirror(fab, UpdateBroadcast)
	m.CommitAtHome(1, 50, 3)
	eng.Run()
	for r := 0; r < 4; r++ {
		if r == 1 {
			continue
		}
		if o, ok := fab.NIC(r).Table.Peek(50); !ok || o != 3 {
			t.Fatalf("rank %d table entry = %d,%v after broadcast", r, o, ok)
		}
	}
	_, bc := m.Stats()
	if bc != 1 {
		t.Fatalf("broadcasts = %d", bc)
	}
}

func TestMirrorDropSweepsEverything(t *testing.T) {
	_, fab, _ := newFab(3)
	m := NewMirror(fab, UpdateOnForward)
	for r := 0; r < 3; r++ {
		fab.NIC(r).InstallRoute(50, (r+1)%3)
		fab.NIC(r).Table.Update(50, (r+1)%3)
	}
	m.Drop(50)
	for r := 0; r < 3; r++ {
		if _, ok := fab.NIC(r).Route(50); ok {
			t.Fatalf("rank %d route survived Drop", r)
		}
		if _, ok := fab.NIC(r).Table.Peek(50); ok {
			t.Fatalf("rank %d table entry survived Drop", r)
		}
	}
}

func TestMirrorEndToEndForwardAfterCommit(t *testing.T) {
	// After a simulated migration commit, a send from a third party must
	// reach the new owner via exactly one in-network forward.
	eng, fab, resident := newFab(4)
	m := NewMirror(fab, UpdateOnForward)

	// Block 50, home 1, migrated to 3.
	resident[3] = append(resident[3], 50)
	m.CommitAtHome(1, 50, 3)
	m.ClearResident(3, 50)

	delivered := 0
	fab.NIC(3).HostDeliver = func(msg *netsim.Message) {
		delivered++
		if msg.Hops != 1 {
			t.Errorf("Hops = %d, want 1", msg.Hops)
		}
	}
	fab.NIC(0).Send(&netsim.Message{Dst: netsim.ByGVA, Target: gas.New(1, 50, 0), Wire: 64})
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
}
