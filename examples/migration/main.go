// Migration: live-migrate a block while other localities hammer it with
// updates, and show (a) no update is lost, (b) how each AGAS design pays
// for the move — host forwarding and cache repair in software-managed
// mode vs in-network forwarding and NIC table updates in network-managed
// mode.
package main

import (
	"fmt"
	"log"

	"nmvgas/internal/parcel"
	"nmvgas/vgas"
)

func run(mode vgas.Mode) {
	const ranks = 4
	w, err := vgas.NewWorld(vgas.Config{Ranks: ranks, Mode: mode})
	if err != nil {
		log.Fatal(err)
	}
	defer w.Stop()
	incr := w.Register("incr", func(c *vgas.Ctx) {
		data := c.Local(c.P.Target)
		v := parcel.U64(data, 0)
		copy(data, parcel.PutU64(nil, v+1))
		c.Continue(nil)
	})
	w.Start()

	lay, err := w.AllocLocal(1, 256, 1)
	if err != nil {
		log.Fatal(err)
	}
	g := lay.BlockAt(0)

	const updates = 120
	gate := w.NewAndGate(0, updates)
	// Start the migration, then immediately fire updates from all ranks.
	mig := w.Proc(0).Migrate(g, 3)
	for i := 0; i < updates; i++ {
		r := i % ranks
		w.Proc(r).Run(func() {
			w.Locality(r).SendParcel(&vgas.Parcel{
				Action: incr, Target: g,
				CAction: vgas.LCOSet, CTarget: gate.G,
			})
		})
	}
	w.MustWait(mig)
	w.MustWait(gate)

	got := w.MustWait(w.Proc(2).Get(g, 8))
	fmt.Printf("%-8s counter=%d/%d", mode, parcel.U64(got, 0), updates)
	if mode == vgas.AGASNM {
		st := w.Stats()
		fmt.Printf("  in-network forwards=%d nic-table-updates=%d host-forwards=%d",
			st.NetForwards, st.NICTableUpds, hostForwards(w, ranks))
	} else {
		fmt.Printf("  host-forwards=%d host-nacks=%d",
			hostForwards(w, ranks), hostNacks(w, ranks))
	}
	fmt.Println()
	if parcel.U64(got, 0) != updates {
		log.Fatal("updates lost during migration!")
	}
}

func hostForwards(w *vgas.World, ranks int) int64 {
	var n int64
	for r := 0; r < ranks; r++ {
		n += w.RankStats(r).Loc.HostForwards
	}
	return n
}

func hostNacks(w *vgas.World, ranks int) int64 {
	var n int64
	for r := 0; r < ranks; r++ {
		n += w.RankStats(r).Loc.HostNacks
	}
	return n
}

func main() {
	fmt.Println("live migration under fire: 120 increments race one migration")
	fmt.Println()
	for _, mode := range []vgas.Mode{vgas.AGASSW, vgas.AGASNM} {
		run(mode)
	}
	fmt.Println("\nno updates lost in either mode; note who did the forwarding work.")
}
