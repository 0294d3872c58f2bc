package exp

import (
	"bytes"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/runtime"
	"nmvgas/internal/stats"
)

func init() {
	register("C2", "Recovery chaos: whole-node kill mid-workload, survivor convergence, rejoin", c2Recover)
}

// c2Recover kills one locality in the middle of a replicated put
// workload and checks that the surviving membership converges to
// exactly the state a never-faulted run reaches: identical op counters,
// identical final memory image, zero black-holed messages (everything
// tracked was delivered-and-acked, NACKed, or abandoned — nothing
// silently pending), and the killed rank re-admitted through Join
// serving reads again. The recovery cost (suspicion probes, re-homed
// blocks, fencing drops) is reported alongside.
func c2Recover(o Options) *stats.Table {
	tb := stats.NewTable("Recovery chaos: kill+rejoin vs never-faulted baseline (4 ranks, 8x64B, replicas=2)",
		"mode", "engine", "golden", "deaths", "joins", "suspicions", "rehomed",
		"retrans", "down_drops", "dead_nacks", "unacked")
	engines := []runtime.EngineKind{runtime.EngineDES, runtime.EngineGo}
	if o.Quick {
		engines = engines[:1]
	}
	for _, sp := range o.sweep() {
		for _, eng := range engines {
			base := c2Run(sp, eng, o, false)
			res := c2Run(sp, eng, o, true)
			ms := res.membership
			golden := "no"
			if res.counters == base.counters && res.dataOK &&
				bytes.Equal(res.image, base.image) &&
				res.unacked == 0 && ms.Deaths == 1 && ms.Joins == 1 {
				golden = "yes"
			}
			tb.AddRow(sp.String(), eng.String(), golden, ms.Deaths, ms.Joins,
				ms.Suspicions, ms.Rehomed, res.delivery.Retransmits,
				ms.DownDrops, ms.DeadNacks, res.unacked)
		}
	}
	return tb
}

// c2Counters is the application-visible counter subset the convergence
// check compares between the faulted run and its baseline (transport-
// and repair-path counters differ by design).
type c2Counters struct {
	puts, gets, putBytes, getBytes int64
}

type c2Result struct {
	counters   c2Counters
	image      []byte
	dataOK     bool
	unacked    int
	delivery   runtime.DeliveryStats
	membership runtime.MembershipStats
}

// c2Run drives one world through the recovery workload. Every block is
// replicated onto two holders, every rank owns a 16-byte region of
// every block, and the victim (by default rank 1 — master and home of a
// quarter of the blocks) is killed between the first and second
// survivor write waves, so the remaining writes push through suspicion,
// death confirmation, and replica promotion. With kill=false the
// identical op sequence runs on an unperturbed world — the convergence
// baseline.
//
// The kill is phase-locked, not wall-clock-scheduled: a kill=/restart=
// schedule in the fault plan (vgasbench -faults) selects
// the victim, but its times are ignored — a kill landing while the
// victim drives its own (then unfinishable) op would hang the run, and
// the golden comparison needs the identical op sequence in both worlds.
// Message-level chaos in the plan (drop/dup/reorder) applies to both.
func c2Run(sp runtime.SpaceSpec, eng runtime.EngineKind, o Options, kill bool) c2Result {
	const (
		ranks, nblocks = 4, 8
		bsize          = 64
	)
	victim := 1
	plan := o.Faults
	for r := range plan.KillAt {
		if r >= 1 && r < ranks && (victim == 1 || r < victim) {
			victim = r
		}
	}
	plan.KillAt, plan.RestartAt = nil, nil
	w := newWorld(sp, ranks, func(c *runtime.Config) {
		c.Engine = eng
		c.Seed = o.Seed
		c.Faults = plan
		c.Reliability.Force = true
		// Recovery needs the in-flight op to survive ~5 backoff
		// doublings plus two probe rounds before its redirect lands.
		c.Reliability.MaxAttempts = 64
	})
	w.Start()
	defer w.Stop()
	lay, err := w.AllocCyclic(0, bsize, nblocks)
	if err != nil {
		panic(err)
	}
	if err := w.ReplicateLive(lay, 2); err != nil {
		panic(err)
	}
	region := func(d uint32, r int) gas.GVA {
		g := lay.BlockAt(d)
		return gas.New(g.Home(), g.Block(), uint32(r)*16)
	}
	pat := func(tag byte, r int) []byte { return bytes.Repeat([]byte{tag + byte(r)}, 16) }

	// Phase A: every rank (victim included) writes its region of every
	// block.
	for r := 0; r < ranks; r++ {
		for d := uint32(0); d < nblocks; d++ {
			w.MustWait(w.Proc(r).Put(region(d, r), pat(0xA0, r)))
		}
	}
	// Phase B, first wave: rank 0 overwrites its regions...
	for d := uint32(0); d < nblocks; d++ {
		w.MustWait(w.Proc(0).Put(region(d, 0), pat(0xB0, 0)))
	}
	// ...then the victim crashes mid-workload...
	if kill {
		w.Kill(victim)
	}
	// ...and the remaining survivor writes push through recovery: puts
	// aimed at the victim's blocks stall in retransmission until death
	// is declared and a surviving replica holder is promoted.
	for r := 1; r < ranks; r++ {
		if r == victim {
			continue
		}
		for d := uint32(0); d < nblocks; d++ {
			w.MustWait(w.Proc(r).Put(region(d, r), pat(0xB0, r)))
		}
	}
	if kill {
		if !w.AwaitMember(victim, runtime.MemberDead, 30e9) {
			panic("recover: victim never declared dead")
		}
		// The killed rank rejoins at runtime and must serve reads below.
		if err := w.Join(victim); err != nil {
			panic(err)
		}
		if !w.AwaitMember(victim, runtime.MemberAlive, 30e9) {
			panic("recover: victim never rejoined")
		}
	}

	// Audit: every rank — including the reborn victim — reads every
	// block in full; the image must hold phase-B survivor regions and
	// the victim's untouched phase-A region.
	dataOK := true
	var image []byte
	var want []byte
	for r := 0; r < ranks; r++ {
		if r == victim {
			want = append(want, pat(0xA0, r)...)
		} else {
			want = append(want, pat(0xB0, r)...)
		}
	}
	for d := uint32(0); d < nblocks; d++ {
		for r := 0; r < ranks; r++ {
			got := w.MustWait(w.Proc(r).Get(lay.BlockAt(d), bsize))
			if !bytes.Equal(got, want) {
				dataOK = false
			}
			if r == 0 {
				image = append(image, got...)
			}
		}
	}

	// Let the acknowledgement and retransmission tails drain before the
	// zero-black-hole audit: coherence fan-out aimed at the victim
	// while it was down sits in the senders' unacked windows until a
	// post-rejoin retransmission lands, and the audit reads' own final
	// acks are still in flight when MustWait returns. Both must be
	// empty, not merely shrinking, for the count to mean anything.
	if eng == runtime.EngineDES {
		w.Drain()
	} else {
		deadline := time.Now().Add(15 * time.Second)
		for w.UnackedMessages() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	s := w.Stats()
	return c2Result{
		counters: c2Counters{
			puts: s.PutOps, gets: s.GetOps,
			putBytes: s.PutBytes, getBytes: s.GetBytes,
		},
		image:      image,
		dataOK:     dataOK,
		unacked:    w.UnackedMessages(),
		delivery:   s.Delivery,
		membership: s.Membership,
	}
}
