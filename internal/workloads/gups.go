package workloads

import (
	"fmt"
	"math/rand"

	"nmvgas/internal/gas"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
)

// KeyDist selects how update keys are drawn.
type KeyDist uint8

const (
	// KeysUniform draws keys uniformly over the table (classic GUPS).
	KeysUniform KeyDist = iota
	// KeysZipf draws keys with a Zipf(1.2) skew: a few blocks get most
	// of the traffic, which is what gives migration something to win.
	KeysZipf
)

// GUPS is the random-access update benchmark: each rank fires updates at
// random 8-byte words of a distributed table; every update is a parcel
// that executes a read-xor-write at the word's current owner.
type GUPS struct {
	w      *runtime.World
	update parcel.ActionID
	pump   *Pump

	lay   gas.Layout // set by Setup, between runs
	dist  KeyDist
	ranks []gupsRank // ranks[r] is rank r's
}

// gupsRank is one rank's key stream and the scratch its updates are
// built in: SendParcel encodes the parcel before it returns, so one per
// rank serves every update.
type gupsRank struct {
	rng *rand.Rand
	zip *rand.Zipf
	p   parcel.Parcel
	val [8]byte
}

// NewGUPS registers the GUPS actions. Call before World.Start. The name
// distinguishes multiple instances in one world.
func NewGUPS(w *runtime.World, name string) *GUPS {
	g := &GUPS{w: w}
	g.update = w.Register(name+".update", g.onUpdate)
	g.pump = NewPump(w, name+".pump")
	g.pump.Issue = g.issue
	return g
}

// Setup allocates the table: nblocks blocks of bsize bytes, distributed
// cyclically, and seeds the per-rank key streams.
func (g *GUPS) Setup(bsize, nblocks uint32, dist KeyDist, seed int64) error {
	if bsize%8 != 0 {
		return fmt.Errorf("workloads: gups bsize %d not 8-byte aligned", bsize)
	}
	lay, err := g.w.AllocCyclic(0, bsize, nblocks)
	if err != nil {
		return err
	}
	g.lay = lay
	g.dist = dist
	g.ranks = make([]gupsRank, g.w.Ranks())
	for r := range g.ranks {
		st := &g.ranks[r]
		st.rng = rand.New(rand.NewSource(seed + int64(r)*1_000_003))
		st.zip = rand.NewZipf(st.rng, 1.2, 1, lay.Bytes()/8-1)
	}
	return nil
}

// Layout returns the table layout (for load-balancing integration).
func (g *GUPS) Layout() gas.Layout { return g.lay }

// issue sends one update from rank.
func (g *GUPS) issue(rank, seq int) {
	st := &g.ranks[rank]
	var word uint64
	if g.dist == KeysZipf {
		word = st.zip.Uint64()
	} else {
		word = st.rng.Uint64() % (g.lay.Bytes() / 8)
	}
	act, cont := g.pump.Wire(rank)
	st.p = parcel.Parcel{
		Action:  g.update,
		Target:  g.lay.At(word * 8),
		Payload: parcel.PutU64(st.val[:0], uint64(seq)*0x9E3779B97F4A7C15+uint64(rank)),
		CAction: act,
		CTarget: cont,
	}
	g.w.Locality(rank).SendParcel(&st.p)
}

// onUpdate performs the read-xor-write at the owner, in place.
func (g *GUPS) onUpdate(c *runtime.Ctx) {
	data := c.Local(c.P.Target)
	if data == nil {
		panic("gups: update ran against non-resident target")
	}
	parcel.PutU64(data[:0], parcel.U64(data, 0)^parcel.U64(c.P.Payload, 0))
	c.Continue(nil)
}

// Run performs perRank updates from every rank with the given window and
// waits for completion. It returns the total number of updates.
func (g *GUPS) Run(perRank, window int) (int, error) { return g.pump.drive(perRank, window) }

// Checksum XORs the whole table — runs must be reproducible for a fixed
// seed and mode-independent (translation must never change semantics).
func (g *GUPS) Checksum() uint64 {
	var sum uint64
	for d := uint32(0); d < g.lay.NBlocks; d++ {
		at(g.w, g.lay.BlockAt(d), func(data []byte) {
			for off := 0; off+8 <= len(data); off += 8 {
				sum ^= parcel.U64(data, off)
			}
		})
	}
	return sum
}
