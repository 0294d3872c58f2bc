// Command vgasdemo is a guided tour: it walks through the runtime's core
// operations on a small world and narrates what the selected address
// space is doing underneath.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"nmvgas/internal/exp"
	"nmvgas/internal/loadbal"
	"nmvgas/internal/metrics"
	"nmvgas/internal/trace"
	"nmvgas/vgas"
)

// demoRanks is the tour's world size; the topology step builds a
// topoRanks fabric of its own.
const demoRanks, topoRanks = 4, 64

// checkFlags refuses, before any world is built, a flag value a tour
// step could not run with: a replica count the world cannot hold, or a
// topology spec that does not parse.
func checkFlags(replicas int, topology string) error {
	if replicas < 0 || replicas > demoRanks-1 {
		return fmt.Errorf("-replicas %d out of range [0,%d]", replicas, demoRanks-1)
	}
	if topology != "" {
		if _, err := vgas.ParseTopology(topology, topoRanks); err != nil {
			return fmt.Errorf("-topology: %v", err)
		}
	}
	return nil
}

func main() {
	modeFlag := flag.String("mode", "agas-nm", "address space: pgas, agas-sw, or agas-nm")
	engineFlag := flag.String("engine", "des", "execution engine: des or go")
	replicasFlag := flag.Int("replicas", 3, "read replicas installed in the replication step (0 skips it)")
	coherenceFlag := flag.String("coherence", "", "replica coherence policy: write-invalidate, write-update, or rw-lease")
	httpAddr := flag.String("http", "", "after the tour, serve /metrics, /metrics.json, "+
		"/trace.json, /healthz, /debug/flight and /debug/pprof on this address "+
		"(e.g. :8080) until interrupted")
	killFlag := flag.Bool("kill", false, "add a failure step: crash rank 1 mid-tour, watch the survivors "+
		"declare it dead and promote replicas, then re-admit it via Join")
	topologyFlag := flag.String("topology", "", "add a topology tour step: build a 64-rank fabric of this "+
		"spec (fat-tree, dragonfly:group=8, two-tier, ...) and print the per-distance "+
		"translation/forwarding cost table for all three address spaces")
	flag.Parse()

	mode, err := vgas.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vgasdemo: %v\n", err)
		os.Exit(2)
	}
	engine, err := vgas.ParseEngine(*engineFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vgasdemo: %v\n", err)
		os.Exit(2)
	}
	var coherence vgas.Coherence
	if *coherenceFlag != "" {
		if coherence, err = vgas.ParseCoherence(*coherenceFlag); err != nil {
			fmt.Fprintf(os.Stderr, "vgasdemo: %v\n", err)
			os.Exit(2)
		}
	}
	if err := checkFlags(*replicasFlag, *topologyFlag); err != nil {
		fmt.Fprintf(os.Stderr, "vgasdemo: %v\n", err)
		os.Exit(2)
	}
	sp := vgas.SpaceFor(mode)

	fmt.Printf("== virtual global address space demo: %s on %s ==\n", sp, engine)
	cfg := vgas.Config{
		Ranks: demoRanks, Engine: engine, Coherence: coherence, Metrics: *httpAddr != "",
		// Sampled heat tracking feeds the rebalancing step (and the
		// nmvgas_heat_* series when -http is on); off the hot paths it
		// costs a single nil check.
		Heat: vgas.HeatConfig{Enabled: true},
		// The runtime pulse drives the watchdog catalog (and /healthz
		// when -http is on); the health tour below depends on it.
		Pulse: vgas.PulseConfig{Enabled: true},
	}
	if *killFlag {
		// Crash recovery rides on reliable delivery: retransmission
		// silence is what raises suspicion, and the stalled op must
		// survive the backoff climb plus two probe rounds.
		cfg.Reliability = vgas.ReliabilityConfig{Force: true, MaxAttempts: 64}
	}
	w, err := vgas.NewWorldFor(sp, cfg)
	if err != nil {
		panic(err)
	}
	defer w.Stop()
	// The flight recorder replaces the plain trace ring: same always-on
	// event window (it serves /trace.json through Ring), plus correlated
	// diagnostic bundles on watchdog trips and /debug/flight.
	flight := trace.NewFlight(w, trace.FlightConfig{Capacity: 1 << 15})
	flight.Arm()

	echo := w.Register("echo", func(c *vgas.Ctx) {
		fmt.Printf("   [rank %d] action runs where the data lives\n", c.Rank())
		c.Continue(c.P.Payload)
	})
	w.Start()

	fmt.Println("\n1. Allocate 8 blocks, spread cyclically over 4 localities.")
	lay, err := w.AllocCyclic(0, 4096, 8)
	if err != nil {
		panic(err)
	}
	g := lay.BlockAt(1)
	fmt.Printf("   block 1 lives at its home, rank %d; its address is %v\n", g.Home(), g)

	fmt.Println("\n2. One-sided put/get: the target NIC handles the transfer.")
	w.MustWait(w.Proc(0).Put(g, []byte("hello")))
	got := w.MustWait(w.Proc(3).Get(g, 5))
	fmt.Printf("   rank 3 reads back: %q\n", got)

	fmt.Println("\n3. A parcel runs an action at the owner.")
	reply := w.MustWait(w.Proc(0).Call(g, echo, []byte("ping")))
	fmt.Printf("   reply: %q\n", reply)

	// replication narrates the coherent read-replication step: install
	// live replicas, serve reads locally, and keep holders coherent
	// through a write.
	replication := func(step int) {
		if *replicasFlag <= 0 {
			return
		}
		fmt.Printf("\n%d. Install %d live read replicas per block (%v coherence).\n",
			step, *replicasFlag, coherence)
		if err := w.ReplicateLive(lay, *replicasFlag); err != nil {
			panic(err)
		}
		for r := 0; r < demoRanks; r++ {
			w.MustWait(w.Proc(r).Get(g, 5))
		}
		fmt.Printf("   every rank read the same address; %d reads were served by replicas\n",
			w.Stats().ReplicaReads)
		fmt.Println("   the block stays writable: the master keeps holders coherent")
		w.MustWait(w.Proc(0).Put(g, []byte("world")))
		if engine == vgas.EngineDES {
			w.Drain()
		} else {
			time.Sleep(50 * time.Millisecond)
		}
		s := w.Stats()
		fmt.Printf("   coherence traffic: %d invalidations, %d refills, %d pushed updates\n",
			s.ReplicaInvals, s.ReplicaFills, s.ReplicaUpdates)
		got := w.MustWait(w.Proc(1).Get(g, 5))
		fmt.Printf("   rank 1 reads back after the write: %q\n", got)
	}

	// chaos narrates the failure step: a whole-node crash, failure
	// suspicion driven by retransmission silence, replica promotion on
	// the survivors, and runtime re-admission through Join.
	chaos := func(step int) {
		if !*killFlag {
			return
		}
		victim := lay.BlockAt(5) // homed at rank 1, the rank about to die
		if *replicasFlag <= 0 {
			fmt.Printf("\n%d. Install 2 read replicas per block so rank 1's data survives it.\n", step)
			if err := w.ReplicateLive(lay, 2); err != nil {
				panic(err)
			}
			step++
		}
		fmt.Printf("\n%d. Crash rank 1: its link goes down, fail-stop, no goodbye.\n", step)
		w.Kill(1)
		fmt.Println("   rank 2 writes to a block homed at the corpse; the put stalls in")
		fmt.Println("   retransmission, backoff hits its ceiling, probes confirm the death,")
		fmt.Println("   a surviving replica holder is promoted, and the put lands there.")
		w.MustWait(w.Proc(2).Put(victim, []byte("crash")))
		if !w.AwaitMember(1, vgas.MemberDead, 30*time.Second) {
			panic("demo: rank 1 was never declared dead")
		}
		// Let the write's coherence fan-out reach the surviving holders
		// before reading through them (same settle as the replication
		// step).
		if engine == vgas.EngineDES {
			w.Drain()
		} else {
			time.Sleep(50 * time.Millisecond)
		}
		ms := w.Stats().Membership
		fmt.Printf("   death confirmed: %d suspicion probes, %d blocks re-homed, %d lost, epoch %d\n",
			ms.Suspicions, ms.Rehomed, ms.Lost, ms.Epoch)
		got := w.MustWait(w.Proc(3).Get(victim, 5))
		fmt.Printf("   rank 3 reads %q from the promoted holder — the address never changed\n", got)

		fmt.Printf("\n%d. Re-admit rank 1 via Join: state wiped, routes relearned, epoch bumped.\n", step+1)
		if err := w.Join(1); err != nil {
			panic(err)
		}
		if !w.AwaitMember(1, vgas.MemberAlive, 30*time.Second) {
			panic("demo: rank 1 never rejoined")
		}
		got = w.MustWait(w.Proc(1).Get(victim, 5))
		ms = w.Stats().Membership
		fmt.Printf("   reborn rank 1 reads %q; membership: deaths=%d joins=%d epoch=%d\n",
			got, ms.Deaths, ms.Joins, ms.Epoch)
	}

	// rebalanceTour narrates the closed control loop: sampled heat
	// tracking spots a remote consumer hammering a block, and one policy
	// epoch migrates the block to it — same address, now-local accesses.
	rebalanceTour := func(step int) {
		hot := lay.BlockAt(0)
		fmt.Printf("\n%d. Heat-driven rebalancing: rank 3 hammers block 0, homed at rank %d.\n",
			step, hot.Home())
		w.HeatEpoch() // fresh sampling window for this story
		start := w.Now()
		for i := 0; i < 120; i++ {
			w.MustWait(w.Proc(3).Get(hot, 64))
		}
		remote := w.Now() - start
		if top := w.HeatTop(1); len(top) > 0 {
			fmt.Printf("   the heat sketch agrees: hottest block is %d, %d sampled accesses, all from rank %d\n",
				top[0].Block-lay.Base.Block(), top[0].Count, top[0].Src)
		}
		p, err := loadbal.NewPolicy(w, loadbal.PolicyConfig{Layout: lay, MinSamples: 32})
		if err != nil {
			panic(err)
		}
		rep, err := p.Step()
		if err != nil {
			panic(err)
		}
		fmt.Printf("   one policy epoch: %d migration(s) toward the dominant accessor (imbalance %.2f)\n",
			rep.Moves, rep.Imbalance)
		start = w.Now()
		for i := 0; i < 120; i++ {
			w.MustWait(w.Proc(3).Get(hot, 64))
		}
		if engine == vgas.EngineDES {
			fmt.Printf("   120 reads again, same address: %v remote before, %v local after the move\n",
				remote, w.Now()-start)
		} else {
			fmt.Println("   the same reads are now served locally — the address never changed")
		}
	}

	// healthTour narrates the observability loop end to end: inject a
	// migration stall, watch the watchdog walk warn → critical on the
	// pulse clock, read the flight recorder's trip bundle, then release
	// the pin and watch health return to ok.
	healthTour := func(step int) {
		fmt.Printf("\n%d. Health tour: pin a migration and let the watchdogs catch it.\n", step)
		pin := lay.BlockAt(3)
		release := w.InjectMigrationStall()
		fut := w.Proc(0).Migrate(pin, 0)
		fmt.Println("   the migration's data install is stalled; the block is pinned at its")
		fmt.Println("   old owner and the migration-stall watchdog starts aging the pin...")
		if !w.AwaitHealth(vgas.WatchCritical, 30*time.Second) {
			panic("demo: stall never went critical")
		}
		h := w.Health()
		for _, st := range h.Watchdogs {
			if st.Name == vgas.WatchMigrationStall {
				fmt.Printf("   pulse %d: %s is %v — %s\n", h.Pulse, st.Name, st.Level, st.Detail)
			}
		}
		if b := flight.Latest(); b != nil {
			fmt.Printf("   the trip dumped a flight bundle: trigger %s, %d trace events around the anomaly\n",
				b.Trigger, b.TraceEvents)
		}
		fmt.Println("   releasing the pin: the deferred install completes, health recovers")
		release()
		if st := vgas.MigrateStatus(w.MustWait(fut)); st != vgas.MigrateOK {
			panic(fmt.Sprintf("demo: pinned migration finished with status %d", st))
		}
		if !w.AwaitHealth(vgas.WatchOK, 30*time.Second) {
			panic("demo: health never returned to ok")
		}
		fmt.Printf("   health back to %v at pulse %d — same story /healthz would tell\n",
			w.Health().Level, w.Health().Pulse)
	}

	// topoTour narrates distance-dependent translation cost: on a 64-rank
	// hierarchical fabric, a stale translation's repair detour spans real
	// hop distance, so where the forwarding happens (host vs NIC) shows
	// up in the latency — the nm-vs-sw crossover, interactively.
	topoTour := func(step int) {
		if *topologyFlag == "" {
			return
		}
		topo, _ := vgas.ParseTopology(*topologyFlag, topoRanks) // checkFlags parsed it
		fmt.Printf("\n%d. Topology tour: 64 localities on a %s fabric.\n", step, topo.Name())
		fmt.Println("   Each row migrates a block one tier further from the sender, then")
		fmt.Println("   times the first put against the now-stale translation. The software")
		fmt.Println("   space detours through the old home's host; the network-managed")
		fmt.Println("   space forwards in the NIC — watch the gap widen with distance.")
		if err := exp.DistanceCosts(*topologyFlag).Fprint(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "vgasdemo: %v\n", err)
			os.Exit(1)
		}
	}

	serve := func() {
		if *httpAddr == "" {
			return
		}
		reg := metrics.NewRegistry()
		pub := metrics.PublishWorld(reg, w)
		health := metrics.PublishHealth(reg, w)
		fmt.Printf("\nServing observability endpoint on %s (/metrics, /metrics.json, /trace.json, /healthz, /debug/flight, /debug/pprof) — Ctrl-C to exit.\n", *httpAddr)
		if err := http.ListenAndServe(*httpAddr, metrics.Handler(reg, metrics.HandlerOptions{
			Refresh: func() { pub.Refresh(); health.Refresh() },
			Ring:    flight.Ring(),
			Health:  w.Health,
			Flight:  flight,
		})); err != nil {
			fmt.Fprintf(os.Stderr, "vgasdemo: %v\n", err)
			os.Exit(1)
		}
	}

	if !sp.Caps.Migration {
		fmt.Printf("\n4. %s is static: blocks cannot migrate (Caps.Migration=false).\n", sp)
		st := w.MustWait(w.Proc(0).Migrate(g, 2))
		fmt.Printf("   migrate status: %d (1 = pinned/refused)\n", vgas.MigrateStatus(st))
		replication(5)
		chaos(6)
		topoTour(8)
		fmt.Println("\nDone.")
		serve()
		return
	}

	fmt.Println("\n4. Migrate the block to rank 2 — its address does not change.")
	st := w.MustWait(w.Proc(0).Migrate(g, 2))
	fmt.Printf("   migrate status: %d (0 = ok)\n", vgas.MigrateStatus(st))

	fmt.Println("\n5. Send to the SAME address: stale translation is repaired")
	fmt.Println("   by the mode's strategy (host forwarding or NIC tables).")
	if sp.Caps.NICTranslation {
		before := w.Stats().NetForwards
		w.MustWait(w.Proc(0).Call(g, echo, []byte("after-move")))
		mid := w.Stats().NetForwards
		w.MustWait(w.Proc(0).Call(g, echo, []byte("again")))
		after := w.Stats().NetForwards
		fmt.Printf("   in-network forwards: first send %d, second send %d (learned!)\n",
			mid-before, after-mid)
	} else {
		before := w.RankStats(g.Home()).Loc.HostForwards
		w.MustWait(w.Proc(0).Call(g, echo, []byte("after-move")))
		mid := w.RankStats(g.Home()).Loc.HostForwards
		w.MustWait(w.Proc(0).Call(g, echo, []byte("again")))
		after := w.RankStats(g.Home()).Loc.HostForwards
		fmt.Printf("   host forwards at the old owner: first send %d, second send %d\n",
			mid-before, after-mid)
	}

	rebalanceTour(6)
	replication(7)
	chaos(8)
	healthTour(10)
	topoTour(11)

	if w.Fabric() != nil {
		fmt.Printf("\nSimulated time elapsed: %v. Done.\n", w.Now())
	} else {
		fmt.Println("\nDone.")
	}
	serve()
}
