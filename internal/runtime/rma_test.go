package runtime

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// TestOneSidedServeMatrix drives the four one-sided kinds through every
// way an op can meet its block's owner — both doors of rma.go, in every
// mode and on both engines, where the meeting exists — and checks the
// bytes moved, that each op completed exactly once, the counters that
// say which path it took, and (Heat counts every access here) that one
// op is one heat sample however many copies of its request arrived.
//
// Every cell runs on four ranks with four blocks homed on rank 1, one
// per kind, so a cell that needs its target stale or pinned has a fresh
// one for each op. Ops are issued from rank 0 unless the cell says
// otherwise; rank 2 is where blocks migrate to and where replicas live.

const rmaBSize = 256

// rmaSeed is every block's initial image.
var rmaSeed = func() []byte {
	img := make([]byte, rmaBSize)
	for i := range img {
		img[i] = byte(i*7 + 3)
	}
	return img
}()

// rmaWritten returns rmaSeed with data written at each given offset.
func rmaWritten(at map[int]string) []byte {
	img := append([]byte(nil), rmaSeed...)
	for off, data := range at {
		copy(img[off:], data)
	}
	return img
}

// rmaKind is one of the four ops in a form the matrix can issue from any
// rank without blocking. want is what a read returns, or for a write the
// whole block image afterwards (so a stray byte fails too).
type rmaKind struct {
	name  string
	read  bool
	issue func(l *Locality, g gas.GVA, done func([]byte))
	want  []byte
}

var rmaKinds = []rmaKind{
	{name: "put", want: rmaWritten(map[int]string{8: "sixteen byte put"}),
		issue: func(l *Locality, g gas.GVA, done func([]byte)) {
			l.PutAsync(g.WithOffset(8), []byte("sixteen byte put"), func() { done(nil) })
		}},
	{name: "get", read: true, want: rmaSeed[40:64],
		issue: func(l *Locality, g gas.GVA, done func([]byte)) {
			l.GetAsync(g.WithOffset(40), 24, done)
		}},
	{name: "putvec", want: rmaWritten(map[int]string{4: "head", 204: "tail"}),
		issue: func(l *Locality, g gas.GVA, done func([]byte)) {
			l.issue(&rmaReq{kind: kPutVec, target: g.WithOffset(4), psegs: []PutSeg{{Off: 0, Data: []byte("head")}, {Off: 200, Data: []byte("tail")}}},
				opState{pdone: func() { done(nil) }})
		}},
	{name: "getvec", read: true, want: append(append([]byte(nil), rmaSeed[4:10]...), rmaSeed[104:114]...),
		issue: func(l *Locality, g gas.GVA, done func([]byte)) {
			l.issue(&rmaReq{kind: kGetVec, target: g.WithOffset(4), gsegs: []GetSeg{{Off: 0, N: 6}, {Off: 100, N: 10}}}, opState{done: done})
		}},
}

// rmaOp is one issued op: what it read and how often it completed.
type rmaOp struct {
	kind  int
	got   []byte
	fired atomic.Int32
}

// rmaRun is one cell's world plus the ops issued into it.
type rmaRun struct {
	t   *testing.T
	w   *World
	lay gas.Layout
	ops []*rmaOp
}

func newRMARun(t *testing.T, mode Mode, eng EngineKind, mutate func(*Config)) *rmaRun {
	cfg := Config{Ranks: 4, Mode: mode, Engine: eng, Seed: 7, Heat: HeatConfig{Enabled: true}}
	if mutate != nil {
		mutate(&cfg)
	}
	r := &rmaRun{t: t, w: testWorld(t, cfg)}
	r.w.Start()
	lay, err := r.w.AllocLocal(1, rmaBSize, uint32(len(rmaKinds)))
	if err != nil {
		t.Fatal(err)
	}
	r.lay = lay
	for k := range rmaKinds {
		copy(r.block(1, k).Data, rmaSeed)
	}
	return r
}

func (r *rmaRun) id(k int) gas.BlockID { return r.lay.BlockAt(uint32(k)).Block() }

// block returns rank's copy of kind k's block.
func (r *rmaRun) block(rank, k int) *gas.Block {
	r.t.Helper()
	blk, ok := r.w.Locality(rank).store.Get(r.id(k))
	if !ok {
		r.t.Fatalf("rank %d does not hold %s's block", rank, rmaKinds[k].name)
	}
	return blk
}

// until advances w until cond holds: the DES engine runs, the goroutine
// engine is polled.
func until(t *testing.T, w *World, what string, cond func() bool) {
	t.Helper()
	if f := w.Fabric(); f != nil {
		if !f.Eng.RunUntil(cond) {
			t.Fatalf("event queue drained before %s", what)
		}
		return
	}
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func (r *rmaRun) until(what string, cond func() bool) {
	r.t.Helper()
	until(r.t, r.w, what, cond)
}

// issue starts kind k from rank `from` and returns without waiting.
func (r *rmaRun) issue(from, k int) *rmaOp {
	op := &rmaOp{kind: k}
	r.ops = append(r.ops, op)
	l, g := r.w.Locality(from), r.lay.BlockAt(uint32(k))
	r.w.Proc(from).Run(func() {
		rmaKinds[k].issue(l, g, func(data []byte) {
			op.got = append([]byte(nil), data...)
			op.fired.Add(1)
		})
	})
	return op
}

func (r *rmaRun) await(ops ...*rmaOp) {
	r.t.Helper()
	for _, op := range ops {
		r.until(rmaKinds[op.kind].name+" to complete", func() bool { return op.fired.Load() > 0 })
	}
}

// each runs the chosen kinds (all four by default) one after another
// from rank `from`.
func (r *rmaRun) each(from int, kinds ...int) {
	r.t.Helper()
	if kinds == nil {
		kinds = []int{0, 1, 2, 3}
	}
	for _, k := range kinds {
		r.await(r.issue(from, k))
	}
}

var rmaReads = []int{1, 3}

// verify settles the world and checks every op issued so far: one
// completion each, reads returned the seeded bytes, writes left exactly
// their image in the master copy on rank `master`.
func (r *rmaRun) verify(master int) {
	r.t.Helper()
	if r.w.Fabric() != nil {
		r.w.Drain()
	}
	for _, op := range r.ops {
		k := rmaKinds[op.kind]
		if n := op.fired.Load(); n != 1 {
			r.t.Errorf("%s completed %d times", k.name, n)
		}
		got := op.got
		if !k.read {
			blk := r.block(master, op.kind)
			if blk.Replica {
				r.t.Errorf("%s: rank %d holds a replica, not the master", k.name, master)
			}
			got = blk.Data
		}
		if !bytes.Equal(got, k.want) {
			r.t.Errorf("%s moved the wrong bytes:\n got %q\nwant %q", k.name, got, k.want)
		}
	}
}

// heat checks the per-rank sampled accesses: one per op served there.
func (r *rmaRun) heat(want ...uint64) {
	r.t.Helper()
	got := r.w.HeatLoads()
	for rank := range want {
		if got[rank] != want[rank] {
			r.t.Errorf("heat samples per rank %v, want %v", got, want)
			return
		}
	}
}

// count checks one counter.
func (r *rmaRun) count(name string, got, want int64) {
	r.t.Helper()
	if got != want {
		r.t.Errorf("%s = %d, want %d", name, got, want)
	}
}

func (r *rmaRun) stats(rank int) LocStats { return r.w.RankStats(rank).Loc }

func (r *rmaRun) dma(rank int) int64 { return int64(r.w.net.Stats(rank)[netsim.CntDMADelivered]) }

// move migrates every block from rank `from`, which issues the request
// (so no other rank learns where they went), to rank `to`.
func (r *rmaRun) move(from, to int) {
	r.t.Helper()
	for k := range rmaKinds {
		if st := MigrateStatus(r.w.MustWait(r.w.Proc(from).Migrate(r.lay.BlockAt(uint32(k)), to))); st != MigrateOK {
			r.t.Fatalf("migrate status %d", st)
		}
	}
}

// replicate gives every block one replica (on rank 2, the rank after the
// master); with stale set it then pins each copy stale — marked invalid
// with a refill "in flight" that never lands — and scribbles over it, so
// a read served from it cannot pass.
func (r *rmaRun) replicate(stale bool) {
	r.t.Helper()
	if err := r.w.ReplicateLive(r.lay, 1); err != nil {
		r.t.Fatal(err)
	}
	if !stale {
		return
	}
	h := r.w.Locality(2)
	for k := range rmaKinds {
		r.w.claim(h.rank, func() {
			st := h.replicas[r.id(k)]
			st.stale, st.filling = true, true
		})
		for i, data := 0, r.block(2, k).Data; i < len(data); i++ {
			data[i] = 0xEE
		}
	}
}

// settle waits for the coherence traffic of the cell's writes.
func (r *rmaRun) settle(pred func(WorldStats) bool) {
	r.t.Helper()
	settleCoherence(r.t, r.w, pred)
}

func TestOneSidedServeMatrix(t *testing.T) {
	notPGAS := func(m Mode, _ EngineKind) bool { return m != PGAS }
	onlyDES := func(_ Mode, e EngineKind) bool { return e == EngineDES }
	cells := []struct {
		name   string
		exists func(Mode, EngineKind) bool
		cfg    func(*Config)
		run    func(r *rmaRun, mode Mode, eng EngineKind)
	}{
		{name: "nic door, remote op on a resident block",
			run: func(r *rmaRun, _ Mode, _ EngineKind) {
				r.each(0)
				r.verify(1)
				r.count("DMA deliveries at the owner", r.dma(1), 4)
				s := r.w.Stats()
				r.count("LocalRuns", s.LocalRuns, 0)
				r.count("Queued", s.Queued, 0)
				r.count("HostForwards", s.HostForwards, 0)
				r.count("HostNacks", s.HostNacks, 0)
				r.heat(0, 4, 0, 0)
			}},
		{name: "host door, the owner's own op",
			run: func(r *rmaRun, _ Mode, _ EngineKind) {
				r.each(1)
				r.verify(1)
				r.count("LocalRuns at the owner", r.stats(1).LocalRuns, 4)
				s := r.w.Stats()
				r.count("DMA deliveries", int64(s.DMADeliveries), 0)
				r.count("messages on the network", int64(s.NetSent), 0)
				r.heat(0, 4, 0, 0)
			}},
		{name: "host door, block pinned by a migration", exists: notPGAS,
			run: func(r *rmaRun, _ Mode, _ EngineKind) {
				release := r.w.InjectMigrationStall()
				var moves []*LCORef
				for k := range rmaKinds {
					moves = append(moves, r.w.Proc(1).Migrate(r.lay.BlockAt(uint32(k)), 2))
				}
				r.until("the blocks to be pinned", func() bool {
					for k := range rmaKinds {
						if !r.w.Locality(1).Moving(r.id(k)) {
							return false
						}
					}
					return true
				})
				var ops []*rmaOp
				for k := range rmaKinds {
					ops = append(ops, r.issue(0, k))
				}
				r.until("the ops to park", func() bool { return r.stats(1).Queued == 4 })
				for _, op := range ops {
					if op.fired.Load() != 0 {
						r.t.Errorf("%s completed against a pinned block", rmaKinds[op.kind].name)
					}
				}
				release()
				for _, mv := range moves {
					if st := MigrateStatus(r.w.MustWait(mv)); st != MigrateOK {
						r.t.Fatalf("migrate status %d", st)
					}
				}
				r.await(ops...)
				r.verify(2)
				r.count("Queued at the old owner", r.stats(1).Queued, 4)
				// Flushed to the new owner, served once, there.
				r.heat(0, 0, 4, 0)
			}},
		{name: "host door, stale delivery", exists: notPGAS,
			run: func(r *rmaRun, mode Mode, _ EngineKind) {
				r.move(1, 2)
				r.each(0)
				r.verify(2)
				s := r.w.Stats()
				if mode == AGASNM {
					// Repaired below the host: the old owner's NIC forwards.
					r.count("in-network forwards at the old owner", int64(r.w.net.Stats(1)[netsim.CntForwards]), 4)
					r.count("HostNacks", s.HostNacks, 0)
				} else {
					// Repaired in software: the old owner's host bounces the op
					// back with owner advice and the requester re-sends.
					r.count("HostNacks at the old owner", r.stats(1).HostNacks, 4)
					r.count("in-network forwards", int64(s.NetForwards), 0)
				}
				r.count("DMA deliveries at the new owner", r.dma(2), 4)
				r.heat(0, 0, 4, 0)
			}},
		{name: "host door, write lands on a replica", exists: func(m Mode, _ EngineKind) bool { return m == AGASSW },
			run: func(r *rmaRun, _ Mode, _ EngineKind) {
				// Rank 0 learns the blocks at rank 2, they move back, and rank 2
				// becomes their replica holder: rank 0's cached translation
				// now sends its writes to a copy that must not take them.
				r.move(1, 2)
				r.each(0)
				r.move(2, 1)
				r.replicate(false)
				r.each(0, 0, 2)
				r.settle(func(s WorldStats) bool { return s.ReplicaInvals >= 2 })
				r.verify(1)
				r.count("DMA deliveries at the master", r.dma(1), 2)
				r.count("ReplicaInvals at the holder", r.stats(2).ReplicaInvals, 2)
				r.heat(0, 2, 4, 0)
			}},
		{name: "fresh replica",
			run: func(r *rmaRun, _ Mode, _ EngineKind) {
				r.replicate(false)
				// Remote reads are steered to the holder and served at its
				// NIC; writes go to the master and invalidate the holder.
				r.each(0)
				r.count("ReplicaReads at the holder", r.stats(2).ReplicaReads, 2)
				r.count("DMA deliveries at the holder", r.dma(2), 2)
				r.count("DMA deliveries at the master", r.dma(1), 2)
				r.settle(func(s WorldStats) bool { return s.ReplicaInvals >= 2 && s.ReplicaFills >= 2 })
				// The holder's own reads take its host door and complete inline.
				r.each(2, rmaReads...)
				r.verify(1)
				hs := r.stats(2)
				r.count("ReplicaReads at the holder", hs.ReplicaReads, 4)
				r.count("LocalRuns at the holder", hs.LocalRuns, 2)
				r.count("ReplicaStaleReads", r.w.Stats().ReplicaStaleReads, 0)
				r.count("ReplicaInvals at the holder", hs.ReplicaInvals, 2)
				r.count("ReplicaFills at the holder", hs.ReplicaFills, 2)
				for k := range rmaKinds {
					if got := r.block(2, k).Data; !bytes.Equal(got, r.block(1, k).Data) {
						r.t.Errorf("%s: holder copy diverged from the master: %q", rmaKinds[k].name, got)
					}
				}
				r.heat(0, 2, 4, 0)
			}},
		{name: "stale replica",
			run: func(r *rmaRun, mode Mode, _ EngineKind) {
				r.replicate(true)
				r.each(0)
				r.settle(func(s WorldStats) bool { return s.ReplicaInvals >= 2 })
				hs := r.stats(2)
				if mode == AGASNM {
					// The holder's NIC sees the copy stale and routes the read
					// on by ownership: it never reaches serve there.
					r.count("in-network forwards at the holder", int64(r.w.net.Stats(2)[netsim.CntForwards]), 2)
					r.count("ReplicaStaleReads at the holder", hs.ReplicaStaleReads, 0)
					r.count("HostForwards", r.w.Stats().HostForwards, 0)
				} else {
					// A dumb NIC hands the read up and the host re-routes it.
					r.count("ReplicaStaleReads at the holder", hs.ReplicaStaleReads, 2)
					r.count("HostForwards at the holder", hs.HostForwards, 2)
				}
				// The holder's own reads chase the master from the send side.
				before := hs.ReplicaStaleReads
				r.each(2, rmaReads...)
				r.verify(1)
				r.count("ReplicaStaleReads by the holder's own reads", r.stats(2).ReplicaStaleReads-before, 2)
				r.count("ReplicaReads", r.w.Stats().ReplicaReads, 0)
				r.count("DMA deliveries at the master", r.dma(1), 6)
				r.heat(0, 6, 0, 0)
			}},
		{name: "nic door, replica found stale at transfer time", exists: onlyDES,
			run: func(r *rmaRun, _ Mode, _ EngineKind) {
				r.replicate(true)
				// The invalidation landed between the NIC's routing decision
				// and the transfer: the oracle said fresh, the copy is not.
				r.w.Fabric().NIC(2).ResidentRead = func(gas.BlockID) bool { return true }
				r.each(0, rmaReads...)
				r.verify(1)
				r.count("DMA deliveries at the holder", r.dma(2), 2)
				r.count("ReplicaStaleReads at the holder", r.stats(2).ReplicaStaleReads, 2)
				r.count("HostForwards", r.w.Stats().HostForwards, 0)
				r.count("DMA deliveries at the master", r.dma(1), 2)
				r.heat(0, 2, 0, 0)
			}},
		{name: "nic door, every message duplicated",
			cfg: func(c *Config) { c.Faults = netsim.FaultPlan{Duplicate: 1} },
			run: func(r *rmaRun, _ Mode, eng EngineKind) {
				r.each(0)
				// Request and answer each arrive twice; a slow host may add
				// retransmissions on the goroutine engine.
				dups := func() uint64 { return r.w.DeliveryStats().DupsSuppressed }
				r.until("the trailing duplicates", func() bool { return dups() >= 8 })
				r.verify(1)
				if eng == EngineDES {
					r.count("DupsSuppressed", int64(dups()), 8)
				}
				r.heat(0, 4, 0, 0)
			}},
		{name: "host door, duplicate of a remote op", exists: onlyDES,
			cfg: func(c *Config) { c.Reliability = ReliabilityConfig{Force: true} },
			run: func(r *rmaRun, _ Mode, _ EngineKind) {
				// No protocol path hands the host two copies of a remote op on
				// a resident block, so the owner's NIC is rewired to: every DMA
				// delivery goes up to the host instead, twice.
				owner := r.w.Locality(1)
				r.w.Fabric().NIC(1).DMADeliver = func(m *netsim.Message) {
					dup := owner.free.Message()
					*dup = *m
					owner.exec.ExecMsg(0, opHostMsg, m)
					owner.exec.ExecMsg(0, opHostMsg, dup)
				}
				r.each(0)
				r.verify(1)
				r.count("DupsSuppressed", int64(r.w.DeliveryStats().DupsSuppressed), 4)
				r.heat(0, 4, 0, 0)
			}},
	}
	matrix(t, func(t *testing.T, mode Mode, eng EngineKind) {
		for _, c := range cells {
			if c.exists != nil && !c.exists(mode, eng) {
				continue
			}
			c := c
			t.Run(c.name, func(t *testing.T) { c.run(newRMARun(t, mode, eng, c.cfg), mode, eng) })
		}
	})
}
