package runtime

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nmvgas/internal/agas"
	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// Elastic membership. Every world carries a per-world, epoch-versioned
// membership table: one state per locality, a monotonically increasing
// epoch bumped on every membership change, and a recovery overlay that
// re-homes blocks whose routes died with their owner. Two paths change
// membership:
//
//   - planned departure — World.Retire drains a locality's blocks
//     through the ordinary migration machinery, publishes its directory
//     knowledge into the overlay, and removes it;
//   - crash recovery — a fault plan (or World.Kill) cuts a locality's
//     links; the reliability layer's retransmission backoff hitting its
//     ceiling raises suspicion, ping/pong probes on the control path
//     confirm death, and the dead rank's directory-tracked blocks and
//     replica sets are re-homed onto the survivors.
//
// Every membership change bumps the epoch, which fences all NIC-cached
// translation entries installed under older epochs (netsim.TransTable),
// so a stale route can never deliver traffic to a corpse: it either
// redirects through the recovery overlay, NACKs back to the sender with
// a fresh hint, or terminates cleanly at a live host's stale-delivery
// path. World.Join re-admits a dead rank at runtime with a catch-up
// sync that rebuilds its authoritative directory from the overlay.
//
// The machinery is armed only when the world actually uses it (a fault
// plan with kill/restart entries, or an explicit Kill/Retire/Join):
// unperturbed worlds pay a single atomic load on the paths that consult
// membership, and their golden counters are unchanged.

// MemberState is one locality's lifecycle state in the membership table.
type MemberState uint8

const (
	// MemberAlive is the steady state: the locality serves traffic.
	MemberAlive MemberState = iota
	// MemberSuspect marks a locality whose traffic is silently
	// disappearing; probes are in flight to confirm or refute.
	MemberSuspect
	// MemberDraining marks a planned departure mid-drain (Retire).
	MemberDraining
	// MemberDead is a confirmed departure: links fenced, blocks
	// re-homed, routes epoch-fenced.
	MemberDead
	// MemberJoining marks a dead locality mid-readmission (Join).
	MemberJoining
)

func (s MemberState) String() string {
	switch s {
	case MemberAlive:
		return "alive"
	case MemberSuspect:
		return "suspect"
	case MemberDraining:
		return "draining"
	case MemberDead:
		return "dead"
	case MemberJoining:
		return "joining"
	}
	return fmt.Sprintf("member(%d)", uint8(s))
}

// probeRounds is how many ping rounds a suspect survives unanswered
// before being declared dead; probePings is the per-round ping count
// (redundancy against the fault plan dropping the probe itself).
const (
	probeRounds = 2
	probePings  = 2
)

// rehomeEntry is one recovery-overlay record: where a block whose route
// died with its owner now lives, and which (dead) rank was its home.
type rehomeEntry struct {
	owner, home int
}

// probeState tracks one in-flight liveness probe (global single-flight
// per target).
type probeState struct {
	rounds int
	pong   bool
}

// membership is the world's membership table. It implements
// netsim.Liveness: both transports hand it to the NIC core's fences.
type membership struct {
	w *World

	// epoch is the membership version; every change bumps it and fences
	// NIC translation state installed under older epochs.
	epoch atomic.Uint64
	// armed gates the whole machinery: false until the world kills,
	// retires, or joins a locality (or schedules it via the fault plan).
	armed atomic.Bool
	// down is per-rank link state, the ground truth at the transport
	// boundary: traffic to or from a down rank is swallowed whether or
	// not anyone has noticed yet. Read on every transmit when armed.
	down []atomic.Bool

	mu        sync.Mutex
	state     []MemberState
	surrogate []int // per dead rank: live rank that terminates stale traffic
	probing   map[int]*probeState
	// rehome is the recovery overlay: blocks whose owner or home died
	// and that were re-homed onto survivors (promoted replicas, and
	// directory entries harvested from a dead home).
	rehome map[gas.BlockID]rehomeEntry
	// lost records blocks that died with their owner (no replica to
	// promote); traffic for them terminates at the stale-drop path.
	lost map[gas.BlockID]struct{}

	// pending counts outstanding recovery steps scheduled on locality
	// actors; RecoveryQuiet reports it drained.
	pending atomic.Int64

	deaths, joins, retires atomic.Uint64
	suspicions             atomic.Uint64
	rehomed, lostCount     atomic.Uint64
}

func newMembership(w *World) *membership {
	n := w.cfg.Ranks
	return &membership{
		w:         w,
		down:      make([]atomic.Bool, n),
		state:     make([]MemberState, n),
		surrogate: make([]int, n),
		probing:   make(map[int]*probeState),
		rehome:    make(map[gas.BlockID]rehomeEntry),
		lost:      make(map[gas.BlockID]struct{}),
	}
}

// active reports whether the membership machinery has ever been armed —
// the one-atomic-load gate unperturbed hot paths pay.
func (mem *membership) active() bool { return mem.armed.Load() }

// ---------------------------------------------------------------------
// netsim.Liveness

// Down reports whether rank's link is down (crashed, possibly not yet
// declared dead).
func (mem *membership) Down(rank int) bool { return mem.down[rank].Load() }

// DeadHint reports whether rank has been declared dead, and the
// surrogate rank stale traffic should be bounced toward.
func (mem *membership) DeadHint(rank int) (int, bool) {
	mem.mu.Lock()
	defer mem.mu.Unlock()
	if mem.state[rank] != MemberDead {
		return 0, false
	}
	return mem.surrogate[rank], true
}

// Epoch returns the current membership epoch.
func (mem *membership) Epoch() uint64 { return mem.epoch.Load() }

// Rehome returns the post-recovery owner of a block whose route died
// with its owner: a promoted replica master, or the surviving owner of
// a block whose home died.
func (mem *membership) Rehome(b gas.BlockID) (int, bool) {
	mem.mu.Lock()
	defer mem.mu.Unlock()
	e, ok := mem.rehome[b]
	if !ok {
		return 0, false
	}
	return e.owner, true
}

// ---------------------------------------------------------------------
// Host-translation gate

// redirect steers host-side translation around dead ranks: the recovery
// overlay wins, then the block's home (whose directory re-resolves
// authoritatively), then the dead rank's surrogate — whose
// stale-delivery path terminates traffic for genuinely lost blocks
// cleanly instead of chasing a corpse. Unarmed worlds pay one atomic
// load.
func (mem *membership) redirect(b gas.BlockID, owner, home int) int {
	if !mem.active() {
		return owner
	}
	mem.mu.Lock()
	defer mem.mu.Unlock()
	if e, ok := mem.rehome[b]; ok && !mem.down[e.owner].Load() {
		return e.owner
	}
	if mem.state[owner] != MemberDead {
		return owner
	}
	if home != owner && !mem.down[home].Load() {
		return home
	}
	return mem.surrogate[owner]
}

// isLost reports whether b died with its owner.
func (mem *membership) isLost(b gas.BlockID) bool {
	if !mem.active() {
		return false
	}
	mem.mu.Lock()
	defer mem.mu.Unlock()
	_, ok := mem.lost[b]
	return ok
}

// declaredDead reports the table's belief about rank.
func (mem *membership) declaredDead(rank int) bool {
	mem.mu.Lock()
	defer mem.mu.Unlock()
	return mem.state[rank] == MemberDead
}

// ---------------------------------------------------------------------
// Failure suspicion: backoff ceiling → probe → declare

// probeTimeout is the per-round pong deadline.
const probeTimeout = 2 * relMaxRTO

// suspectSweep fires when one of l's reliability channels hits its
// retransmission backoff ceiling: something is silently eating traffic,
// and the channel key alone cannot name the culprit (under NIC routing
// the channel is the block's home, not the crashed owner). Probe every
// currently-alive peer; probes are single-flight per target, so
// repeated ceilings cost nothing while a probe is out.
func (mem *membership) suspectSweep(l *Locality) {
	if !mem.active() || mem.down[l.rank].Load() {
		// A corpse's suspicions don't count: a crashed rank's own
		// timers see universal silence.
		return
	}
	for r := 0; r < mem.w.cfg.Ranks; r++ {
		if r != l.rank {
			mem.beginProbe(l, r)
		}
	}
}

func (mem *membership) beginProbe(l *Locality, target int) {
	mem.mu.Lock()
	if mem.state[target] != MemberAlive || mem.probing[target] != nil {
		mem.mu.Unlock()
		return
	}
	mem.probing[target] = &probeState{}
	mem.state[target] = MemberSuspect
	mem.mu.Unlock()
	mem.suspicions.Add(1)
	mem.w.traceMember(l.rank, TraceMemberSuspect, uint64(target))
	mem.sendPings(l, target)
	mem.armProbeCheck(l, target)
}

// sendPings fires the probe round: rank-addressed control pings outside
// the reliability layer (their silence is the signal; retransmitting
// them would blur it).
func (mem *membership) sendPings(l *Locality, target int) {
	for i := 0; i < probePings; i++ {
		m := netsim.NewMessage()
		m.Kind = kMemberPing
		m.Src = l.rank
		m.Dst = target
		m.Wire = 32
		l.w.net.Send(l.rank, m)
	}
}

func (mem *membership) armProbeCheck(l *Locality, target int) {
	if mem.w.eng != nil {
		mem.w.eng.After(probeTimeout, func() { mem.probeCheck(l, target) })
		return
	}
	time.AfterFunc(mem.w.goWall(probeTimeout), func() { mem.probeCheck(l, target) })
}

// probeCheck runs at the pong deadline: a pong clears the suspicion, an
// unanswered final round declares death. A target whose link came back
// up mid-probe (a restart racing the probe) gets a fresh round instead
// of a wrongful declaration.
func (mem *membership) probeCheck(l *Locality, target int) {
	mem.mu.Lock()
	pr := mem.probing[target]
	if pr == nil {
		mem.mu.Unlock()
		return
	}
	if pr.pong {
		delete(mem.probing, target)
		if mem.state[target] == MemberSuspect {
			mem.state[target] = MemberAlive
		}
		mem.mu.Unlock()
		mem.w.traceMember(l.rank, TraceMemberAlive, uint64(target))
		return
	}
	pr.rounds++
	if pr.rounds < probeRounds || !mem.down[target].Load() {
		pr.pong = false
		mem.mu.Unlock()
		mem.sendPings(l, target)
		mem.armProbeCheck(l, target)
		return
	}
	delete(mem.probing, target)
	mem.mu.Unlock()
	mem.declareDead(target)
}

// pongFrom records a probe answer.
func (mem *membership) pongFrom(rank int) {
	mem.mu.Lock()
	if pr := mem.probing[rank]; pr != nil {
		pr.pong = true
	}
	mem.mu.Unlock()
}

// ---------------------------------------------------------------------
// Death and recovery

// nextLiveLocked picks the surrogate for a dead rank: the next rank
// (cyclically) the table still believes in. Callers hold mem.mu.
func (mem *membership) nextLiveLocked(d int) int {
	n := mem.w.cfg.Ranks
	for i := 1; i < n; i++ {
		r := (d + i) % n
		if mem.state[r] != MemberDead && !mem.down[r].Load() {
			return r
		}
	}
	return d
}

// declareDead confirms a locality's death: fence its link, bump the
// epoch (fencing every NIC-cached route installed under older epochs),
// and re-home its blocks onto the survivors.
func (mem *membership) declareDead(d int) {
	mem.mu.Lock()
	if mem.state[d] == MemberDead {
		mem.mu.Unlock()
		return
	}
	mem.state[d] = MemberDead
	mem.surrogate[d] = mem.nextLiveLocked(d)
	mem.mu.Unlock()
	mem.down[d].Store(true)
	mem.deaths.Add(1)
	mem.w.bumpEpoch(mem.epoch.Add(1))
	mem.w.traceMember(d, TraceMemberDead, uint64(d))
	mem.recoverDead(d)
}

// addRehome records one recovery-overlay route.
func (mem *membership) addRehome(b gas.BlockID, owner, home int) {
	mem.mu.Lock()
	mem.rehome[b] = rehomeEntry{owner: owner, home: home}
	mem.mu.Unlock()
}

func (mem *membership) donePending() { mem.pending.Add(-1) }

// recoverDead re-homes everything the dead locality was responsible
// for. The harvest runs on the dead rank's own actor: its links are cut
// but the actor still drains, so the snapshot serializes against any
// handler that was mid-flight at the moment of death (and the DES
// engine orders it deterministically). Per-rank store mutations are
// then scheduled on the owning actors; mem.pending counts the
// outstanding steps.
func (mem *membership) recoverDead(d int) {
	w := mem.w
	dl := w.locs[d]
	mem.pending.Add(1)
	// Under the sharded engine the whole harvest runs at a barrier
	// (w.onActor), because it reads the corpse's store and directory and
	// fans mutations out across surviving ranks — all of which is global
	// work no single shard may do mid-window.
	w.onActor(dl, func() {
		defer mem.donePending()

		// Harvest the corpse: resident master blocks, and the directory
		// knowledge homed here (the directory is logically replicated
		// metadata — it survives the data loss).
		var masters []*gas.Block
		dl.store.Range(func(b *gas.Block) bool {
			if b.Kind == gas.KindData && !b.Replica && !b.Pinned {
				masters = append(masters, b)
			}
			return true
		})
		sort.Slice(masters, func(i, j int) bool { return masters[i].ID < masters[j].ID })
		var owners map[gas.BlockID]int
		var repls map[gas.BlockID]agas.ReplicaSet
		if dir := dl.space.Directory(); dir != nil {
			owners = dir.Entries()
			repls = dir.ReplicaEntries()
		}

		// Blocks homed here but owned by survivors: their data is safe;
		// record the overlay route so home-directed traffic redirects.
		for _, b := range sortedBlockIDs(owners) {
			mem.addRehome(b, owners[b], d)
		}

		// Master copies resident here: promote through the replica set
		// when one exists, declare lost otherwise.
		for _, blk := range masters {
			if rs, ok := repls[blk.ID]; ok && rs.Master == d {
				mem.promote(d, blk, rs)
			} else {
				mem.loseBlock(blk)
			}
		}

		// Replica sets mastered by survivors shed the dead holder.
		mem.shedHolder(d)
	})
}

// sortedBlockIDs returns m's keys in ascending order, for deterministic
// recovery under the DES engine.
func sortedBlockIDs[V any](m map[gas.BlockID]V) []gas.BlockID {
	ids := make([]gas.BlockID, 0, len(m))
	for b := range m {
		ids = append(ids, b)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// promote turns one of blk's surviving replica holders into its new
// master. The corpse's final image seeds the promotion — standing in
// for the holder's copy plus the write-ahead state a production system
// would replay; a holder whose copy is fresh has identical bytes.
func (mem *membership) promote(d int, blk *gas.Block, rs agas.ReplicaSet) {
	w := mem.w
	nm := -1
	var kept []int
	for _, h := range rs.Holders {
		if h == d || mem.down[h].Load() {
			continue
		}
		if nm < 0 {
			nm = h
		} else {
			kept = append(kept, h)
		}
	}
	if nm < 0 {
		// Every holder died with the master.
		mem.loseBlock(blk)
		return
	}
	b, home, bsize := blk.ID, blk.Home, blk.BSize
	data := append([]byte(nil), blk.Data...)
	hl := w.locs[nm]
	mem.pending.Add(1)
	w.onActor(hl, func() {
		defer mem.donePending()
		if old, ok := hl.store.Get(b); ok && old.Replica {
			hl.store.Remove(b)
		}
		hl.dropReplicaState(b)
		nb := &gas.Block{ID: b, Kind: gas.KindData, BSize: bsize, Data: data, Home: home}
		if err := hl.store.Insert(nb); err != nil {
			w.fail("rank %d: promote replica of block %d: %v", hl.rank, b, err)
		}
		if w.caps.Migration {
			// The strategy's destination-side install hook (static spaces
			// have none: residency alone makes the promotion visible).
			hl.space.InstallMigrated(b)
		}
		w.rehomeReplicas(b, nm, kept)
		mem.rehomed.Add(1)
		w.traceMember(nm, TraceRehome, uint64(b))
		if home != d && !mem.down[home].Load() && w.caps.Migration {
			// The home is alive: flip its directory authoritatively,
			// exactly as a migration commit would.
			mem.pending.Add(1)
			w.onActor(w.locs[home], func() {
				defer mem.donePending()
				w.locs[home].space.CommitMigrate(b, nm)
			})
		} else {
			mem.addRehome(b, nm, home)
		}
	})
}

// loseBlock records a block that died with its owner and sweeps its
// translation state, so residual traffic falls through to the home or
// surrogate and terminates at the (acked) stale-drop path instead of
// chasing a corpse or retrying forever.
func (mem *membership) loseBlock(blk *gas.Block) {
	mem.mu.Lock()
	mem.lost[blk.ID] = struct{}{}
	mem.mu.Unlock()
	mem.lostCount.Add(1)
	mem.w.dropTranslation(blk.ID, blk.Home)
}

// shedHolder removes rank d from every replica set mastered by a
// survivor, reinstalling the surviving read geometry (a set whose only
// holder died dissolves).
func (mem *membership) shedHolder(d int) {
	w := mem.w
	for r, loc := range w.locs {
		if r == d || mem.down[r].Load() {
			continue
		}
		dir := loc.space.Directory()
		if dir == nil {
			continue
		}
		repls := dir.ReplicaEntries()
		for _, b := range sortedBlockIDs(repls) {
			rs := repls[b]
			kept := rs.Holders[:0]
			shed := false
			for _, h := range rs.Holders {
				if h == d {
					shed = true
					continue
				}
				kept = append(kept, h)
			}
			if shed {
				w.rehomeReplicas(b, rs.Master, kept)
			}
		}
	}
}

// ---------------------------------------------------------------------
// World API: Kill / Restart / Retire / Join

// Kill cuts rank's links immediately, as a crash would: in-flight and
// future traffic to or from it is swallowed, suspicion builds on the
// survivors through retransmission silence, and death is confirmed by
// unanswered probes. Kill requires the reliability layer (a kill
// without retransmission machinery silently black-holes traffic);
// configure Faults (a fault plan with kill entries enables it
// automatically) or Reliability.Force.
func (w *World) Kill(rank int) {
	if !w.cfg.reliable() {
		panic("runtime: Kill requires the reliability layer (set Config.Faults or Reliability.Force)")
	}
	w.mem.armed.Store(true)
	w.mem.down[rank].Store(true)
}

// Restart brings rank's link back up. A rank restarted before the
// survivors declared it dead resumes transparently (a transient
// partition: its state is intact and retransmissions drain the
// backlog); one declared dead rejoins through the full Join path.
func (w *World) Restart(rank int) {
	if w.mem.declaredDead(rank) {
		w.Join(rank)
		return
	}
	w.mem.down[rank].Store(false)
}

// MemberState returns rank's membership state.
func (w *World) MemberState(rank int) MemberState {
	w.mem.mu.Lock()
	defer w.mem.mu.Unlock()
	return w.mem.state[rank]
}

// MembershipEpoch returns the current membership epoch.
func (w *World) MembershipEpoch() uint64 { return w.mem.epoch.Load() }

// RecoveryQuiet reports whether no crash-recovery work is in flight.
func (w *World) RecoveryQuiet() bool { return w.mem.pending.Load() == 0 }

// AwaitMember blocks until rank reaches the wanted state with recovery
// quiescent; see World.await.
func (w *World) AwaitMember(rank int, want MemberState, timeout time.Duration) bool {
	return w.await(func() bool { return w.MemberState(rank) == want && w.RecoveryQuiet() }, timeout)
}

// Retire removes rank from the world gracefully: its replica holdings
// dissolve, every data block it owns migrates to the survivors through
// the ordinary migration machinery, its directory knowledge becomes the
// recovery overlay, and only then does its link drop and the epoch
// fence cached routes through it. Requires a migrating address space.
func (w *World) Retire(rank int) error {
	if !w.caps.Migration {
		return fmt.Errorf("runtime: Retire needs a migrating address space; %q is static", w.caps.Name)
	}
	mem := w.mem
	mem.mu.Lock()
	if mem.state[rank] != MemberAlive {
		st := mem.state[rank]
		mem.mu.Unlock()
		return fmt.Errorf("runtime: Retire(%d): member is %v, not alive", rank, st)
	}
	var live []int
	for r := 0; r < w.cfg.Ranks; r++ {
		if r != rank && mem.state[r] == MemberAlive && !mem.down[r].Load() {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		mem.mu.Unlock()
		return fmt.Errorf("runtime: Retire(%d): no surviving locality to drain to", rank)
	}
	mem.state[rank] = MemberDraining
	mem.mu.Unlock()
	mem.armed.Store(true)
	w.traceMember(rank, TraceMemberRetire, uint64(rank))

	// Holder copies on the retiring rank dissolve from their sets (the
	// masters keep serving); sets mastered here travel with the
	// migrations below.
	mem.shedHolder(rank)

	// Drain: migrate every owned data block out, round-robin over the
	// survivors.
	type drainBlk struct {
		id   gas.BlockID
		home int
	}
	var drain []drainBlk
	w.locs[rank].store.Range(func(b *gas.Block) bool {
		if b.Kind == gas.KindData && !b.Pinned && !b.Replica {
			drain = append(drain, drainBlk{id: b.ID, home: b.Home})
		}
		return true
	})
	sort.Slice(drain, func(i, j int) bool { return drain[i].id < drain[j].id })
	p := w.Proc(rank)
	var refs []*LCORef
	for i, db := range drain {
		refs = append(refs, p.Migrate(gas.New(db.home, db.id, 0), live[i%len(live)]))
	}
	for i, ref := range refs {
		v, err := w.Wait(ref)
		if err != nil {
			return fmt.Errorf("runtime: Retire(%d): draining block %d: %w", rank, drain[i].id, err)
		}
		if st := MigrateStatus(v); st != MigrateOK {
			return fmt.Errorf("runtime: Retire(%d): draining block %d: migration status %d", rank, drain[i].id, st)
		}
	}

	// The rank leaves: its directory knowledge (blocks homed here, now
	// owned by survivors) becomes the recovery overlay, the link drops,
	// and the epoch fences every cached route through it.
	if dir := w.locs[rank].space.Directory(); dir != nil {
		owners := dir.Entries()
		for _, b := range sortedBlockIDs(owners) {
			mem.addRehome(b, owners[b], rank)
		}
	}
	mem.mu.Lock()
	mem.state[rank] = MemberDead
	mem.surrogate[rank] = mem.nextLiveLocked(rank)
	mem.mu.Unlock()
	mem.down[rank].Store(true)
	mem.retires.Add(1)
	w.bumpEpoch(mem.epoch.Add(1))
	w.traceMember(rank, TraceMemberDead, uint64(rank))
	return nil
}

// Join re-admits a dead rank at runtime. The reborn locality starts
// from a wiped image (its previous incarnation's state died with it):
// store, coherence state, reliability streams, and NIC tables are
// reset, then a catch-up sync rebuilds its authoritative directory from
// the recovery overlay and relearns the replica read geometry. The
// epoch bumps once the rank is serving again. Use AwaitMember (or
// Drain under DES) to observe completion.
func (w *World) Join(rank int) error {
	mem := w.mem
	mem.mu.Lock()
	if mem.state[rank] != MemberDead {
		st := mem.state[rank]
		mem.mu.Unlock()
		return fmt.Errorf("runtime: Join(%d): member is %v, not dead", rank, st)
	}
	mem.state[rank] = MemberJoining
	mem.mu.Unlock()
	mem.armed.Store(true)
	l := w.locs[rank]
	mem.pending.Add(1)
	// Rebirth wipes cross-cutting state (world receive streams, NIC
	// tables, the recovery overlay), so under sharding it runs at a
	// barrier like the rest of the membership transitions.
	w.onActor(l, func() {
		defer mem.donePending()
		mem.rebirth(l)
	})
	return nil
}

// rebirth runs on the joining rank's actor: wipe, reset, catch up.
func (mem *membership) rebirth(l *Locality) {
	w := mem.w
	rank := l.rank

	// Wipe the previous incarnation's address-space image and rebuild
	// the zeroed infrastructure block.
	var ids []gas.BlockID
	l.store.Range(func(b *gas.Block) bool { ids = append(ids, b.ID); return true })
	for _, id := range ids {
		l.store.Remove(id)
	}
	infra := &gas.Block{
		ID: w.locBase + gas.BlockID(rank), Kind: gas.KindData,
		BSize: 64, Data: make([]byte, 64), Home: rank, Pinned: true,
	}
	if err := l.store.Insert(infra); err != nil {
		w.fail("rank %d: rebirth infra block: %v", rank, err)
	}
	if dir := l.space.Directory(); dir != nil {
		dir.Clear()
	}
	if c := l.space.Cache(); c != nil {
		c.Clear()
	}
	if t := l.space.Tombstones(); t != nil {
		t.Clear()
	}
	l.mu.Lock()
	l.moving = make(map[gas.BlockID]*moveState)
	l.movingN.Store(0)
	l.ops = make(map[uint64]opState)
	l.replicas = nil
	l.mu.Unlock()

	l.relRebirth()

	// NIC rebirth: empty translation state.
	w.net.EachState(rank, (*netsim.TransState).Reset)

	// Catch-up sync, part 1: reclaim directory authority for blocks
	// homed here that survived on other ranks (the recovery overlay
	// drains back into the reborn authoritative directory). Static
	// address spaces cannot express away-from-home ownership, so their
	// overlay entries stay live instead.
	if w.caps.Migration {
		mem.mu.Lock()
		reclaimed := make(map[gas.BlockID]int)
		for b, e := range mem.rehome {
			if e.home == rank {
				reclaimed[b] = e.owner
				delete(mem.rehome, b)
			}
		}
		mem.mu.Unlock()
		for _, b := range sortedBlockIDs(reclaimed) {
			l.space.CommitMigrate(b, reclaimed[b])
		}
	}

	// Catch-up sync, part 2: relearn the replica read geometry from the
	// surviving masters.
	for r, loc := range w.locs {
		if r == rank || mem.down[r].Load() {
			continue
		}
		dir := loc.space.Directory()
		if dir == nil {
			continue
		}
		repls := dir.ReplicaEntries()
		for _, b := range sortedBlockIDs(repls) {
			rs := repls[b]
			l.space.InstallReplicas(b, rs.Master, rs.Holders)
		}
	}

	// Back among the living: open the link, bump the epoch, flip state.
	mem.down[rank].Store(false)
	w.bumpEpoch(mem.epoch.Add(1))
	mem.mu.Lock()
	mem.state[rank] = MemberAlive
	mem.mu.Unlock()
	mem.joins.Add(1)
	w.traceMember(rank, TraceMemberJoin, uint64(rank))
}

// ---------------------------------------------------------------------
// World wiring helpers

// bumpEpoch fences every NIC translation table at the new membership
// epoch, on whichever transport the world runs.
func (w *World) bumpEpoch(epoch uint64) {
	bump := func(st *netsim.TransState) { st.Table.BumpEpoch(epoch) }
	for r := range w.locs {
		w.net.EachState(r, bump)
	}
}

// scheduleFaultMembership arms the membership machinery and schedules
// the fault plan's whole-node kills and restarts on the engine clock.
func (w *World) scheduleFaultMembership() {
	kills, restarts := w.cfg.Faults.KillAt, w.cfg.Faults.RestartAt
	if len(kills) == 0 && len(restarts) == 0 {
		return
	}
	w.mem.armed.Store(true)
	at := func(t netsim.VTime, fn func()) {
		if w.eng != nil {
			w.eng.At(t, fn)
			return
		}
		time.AfterFunc(w.goWall(t), fn)
	}
	for _, r := range sortedRankKeys(kills) {
		r := r
		at(kills[r], func() { w.Kill(r) })
	}
	for _, r := range sortedRankKeys(restarts) {
		r := r
		at(restarts[r], func() { w.Restart(r) })
	}
}

func sortedRankKeys(m map[int]netsim.VTime) []int {
	ranks := make([]int, 0, len(m))
	for r := range m {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}

// MembershipStats is the membership layer's report.
type MembershipStats struct {
	// Epoch is the current membership epoch (0 = never changed).
	Epoch uint64
	// Deaths / Joins / Retires count confirmed membership changes;
	// Suspicions counts probes raised (including false alarms).
	Deaths, Joins, Retires, Suspicions uint64
	// Rehomed counts blocks recovered onto survivors (promotions and
	// harvested directory entries are both re-homes; this counts
	// promotions). Lost counts blocks that died unreplicated.
	Rehomed, Lost uint64
	// DownDrops / DeadNacks / StaleEpochDrops are the NICs' transport-
	// level fencing counts, summed over ranks.
	DownDrops, DeadNacks, StaleEpochDrops uint64
}

// MembershipStats returns the membership layer's counters.
func (w *World) MembershipStats() MembershipStats {
	m, t := w.mem, w.nicTotals()
	return MembershipStats{
		Epoch:           m.epoch.Load(),
		Deaths:          m.deaths.Load(),
		Joins:           m.joins.Load(),
		Retires:         m.retires.Load(),
		Suspicions:      m.suspicions.Load(),
		Rehomed:         m.rehomed.Load(),
		Lost:            m.lostCount.Load(),
		DownDrops:       t.DownDrops,
		DeadNacks:       t.DeadNacks,
		StaleEpochDrops: t.StaleEpochDrops,
	}
}

// NICFaultStats returns one rank's transport-fencing counters (messages
// dropped at a down link, dead-rank NACKs synthesized, and stale-epoch
// table updates discarded).
func (w *World) NICFaultStats(rank int) (downDrops, deadNacks, staleEpochDrops uint64) {
	st := w.net.Stats(rank)
	return st.DownDrops, st.DeadNacks, st.StaleEpochDrops
}
