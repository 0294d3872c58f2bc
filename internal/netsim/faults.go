package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// FaultPlan describes the faults a fabric injects into message delivery.
// The zero value is a perfect network. All probabilities are per-message
// and drawn from one seeded stream, so a given (seed, workload) pair
// replays the identical fault schedule under the DES engine.
type FaultPlan struct {
	// Seed feeds the injector's random stream. A zero seed is replaced by
	// the world's Config.Seed when the runtime wires the plan in.
	Seed int64
	// Drop is the probability a message is lost in flight.
	Drop float64
	// Duplicate is the probability a message is delivered twice; the
	// duplicate trails the original by a random delay up to MaxDelay.
	Duplicate float64
	// DelayProb is the probability a message is held back by a random
	// extra delay up to MaxDelay (which reorders it past later traffic).
	DelayProb float64
	// MaxDelay bounds duplicate and delay offsets (0 = 2µs).
	MaxDelay VTime
	// Reorder is shorthand: when set and DelayProb is zero, DelayProb
	// becomes 0.25 so a quarter of the traffic jitters out of order.
	Reorder bool
	// DropNthCtl drops the Nth message of a given Ctl class (1-based),
	// e.g. {CtlTableUpdate: 3} loses exactly the third table update that
	// enters the fabric. Targeted injections are counted in
	// FaultStats.TargetedDrops, not Dropped.
	DropNthCtl map[uint8]int
	// TableLoss is a per-received-message probability that the receiving
	// NIC forgets one random translation-table entry (soft-error model
	// for the finite NIC table).
	TableLoss float64
	// KillAt schedules whole-locality crashes: rank → virtual time at
	// which the locality's link goes down (fail-stop at the fabric
	// boundary). Unlike the probabilistic faults above, kills are exact
	// scheduled events, so a given plan replays the identical failure
	// under the DES engine.
	KillAt map[int]VTime
	// RestartAt schedules a killed locality's link coming back up. The
	// runtime notices and re-admits the rank through World.Join once its
	// membership layer has finished declaring the death.
	RestartAt map[int]VTime
}

// Enabled reports whether the plan injects any fault at all.
func (p FaultPlan) Enabled() bool {
	return p.Drop > 0 || p.Duplicate > 0 || p.DelayProb > 0 || p.Reorder ||
		p.TableLoss > 0 || len(p.DropNthCtl) > 0 || len(p.KillAt) > 0 ||
		len(p.RestartAt) > 0
}

// ParseFaultPlan parses a compact comma-separated spec such as
// "drop=0.05,dup=0.02,reorder=1,seed=7,delay=0.1,maxdelay=2000,tableloss=0.01,
// dropctl=1:3,kill=2:500000,restart=2:2000000". Unknown keys are errors.
// An empty string is the zero plan.
func ParseFaultPlan(s string) (FaultPlan, error) {
	var p FaultPlan
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return p, fmt.Errorf("netsim: fault plan term %q is not key=value", kv)
		}
		var err error
		switch k {
		case "drop":
			p.Drop, err = strconv.ParseFloat(v, 64)
		case "dup":
			p.Duplicate, err = strconv.ParseFloat(v, 64)
		case "delay":
			p.DelayProb, err = strconv.ParseFloat(v, 64)
		case "tableloss":
			p.TableLoss, err = strconv.ParseFloat(v, 64)
		case "maxdelay":
			var ns int64
			ns, err = strconv.ParseInt(v, 10, 64)
			p.MaxDelay = VTime(ns)
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "reorder":
			p.Reorder = v == "1" || v == "true"
		case "dropctl":
			ctl, nth, ok := strings.Cut(v, ":")
			if !ok {
				return p, fmt.Errorf("netsim: dropctl wants ctl:nth, got %q", v)
			}
			c, err1 := strconv.ParseUint(ctl, 10, 8)
			n, err2 := strconv.Atoi(nth)
			if err1 != nil || err2 != nil {
				return p, fmt.Errorf("netsim: dropctl %q: bad numbers", v)
			}
			if p.DropNthCtl == nil {
				p.DropNthCtl = make(map[uint8]int)
			}
			p.DropNthCtl[uint8(c)] = n
		case "kill", "restart":
			rank, at, ok := strings.Cut(v, ":")
			if !ok {
				return p, fmt.Errorf("netsim: %s wants rank:time, got %q", k, v)
			}
			r, err1 := strconv.Atoi(rank)
			t, err2 := strconv.ParseInt(at, 10, 64)
			if err1 != nil || err2 != nil {
				return p, fmt.Errorf("netsim: %s %q: bad numbers", k, v)
			}
			if k == "kill" {
				if p.KillAt == nil {
					p.KillAt = make(map[int]VTime)
				}
				p.KillAt[r] = VTime(t)
			} else {
				if p.RestartAt == nil {
					p.RestartAt = make(map[int]VTime)
				}
				p.RestartAt[r] = VTime(t)
			}
		default:
			return p, fmt.Errorf("netsim: unknown fault plan key %q", k)
		}
		if err != nil {
			return p, fmt.Errorf("netsim: fault plan term %q: %v", kv, err)
		}
	}
	return p, p.Validate(0)
}

// Validate range-checks the plan: probabilities in [0,1] (Drop in [0,1))
// and not NaN, MaxDelay and kill/restart times non-negative, kill/restart
// ranks non-negative and, when ranks > 0, below ranks (a parsed spec does
// not know the world's size; Config validation does).
func (p FaultPlan) Validate(ranks int) error {
	if !(p.Drop >= 0 && p.Drop < 1) {
		return fmt.Errorf("netsim: fault drop probability %v outside [0,1)", p.Drop)
	}
	for _, f := range [...]struct {
		key string
		v   float64
	}{{"dup", p.Duplicate}, {"delay", p.DelayProb}, {"tableloss", p.TableLoss}} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("netsim: fault %s probability %v outside [0,1]", f.key, f.v)
		}
	}
	if p.MaxDelay < 0 {
		return fmt.Errorf("netsim: negative fault maxdelay %d", p.MaxDelay)
	}
	for _, s := range [...]struct {
		key string
		at  map[int]VTime
	}{{"kill", p.KillAt}, {"restart", p.RestartAt}} {
		for _, r := range sortedRanks(s.at) {
			if r < 0 || ranks > 0 && r >= ranks {
				return fmt.Errorf("netsim: %s=%d:%d: rank %d is not in the world", s.key, r, s.at[r], r)
			}
			if s.at[r] < 0 {
				return fmt.Errorf("netsim: %s=%d:%d: negative time", s.key, r, s.at[r])
			}
		}
	}
	return nil
}

// FaultStats counts injected faults.
type FaultStats struct {
	Dropped          uint64
	Duplicated       uint64
	Delayed          uint64
	TargetedDrops    uint64
	TableEntriesLost uint64
}

// FaultAction is the injector's verdict for one message.
type FaultAction struct {
	// Drop loses the message entirely.
	Drop bool
	// Duplicate delivers a second copy trailing by DupDelay.
	Duplicate bool
	DupDelay  VTime
	// Delay postpones the (first) delivery by this much.
	Delay VTime
}

// FaultInjector applies a FaultPlan with one seeded random stream. It is
// shared by every NIC on a fabric (and every chanNet rank), so the mutex
// makes it safe under the goroutine engine; under DES all calls come from
// the single engine goroutine in event order, which makes the fault
// schedule fully deterministic.
type FaultInjector struct {
	mu      sync.Mutex
	plan    FaultPlan
	rng     *rand.Rand
	ctlSeen map[uint8]int
	Stats   FaultStats
}

// defaultMaxDelay bounds duplicate/delay offsets when the plan leaves
// MaxDelay zero. It is kept shorter than a network round-trip so a
// duplicate cannot leapfrog an entire migration handshake.
const defaultMaxDelay = 2000 // 2µs

// NewFaultInjector builds an injector; a nil result means faults are off.
func NewFaultInjector(p FaultPlan) *FaultInjector {
	if !p.Enabled() {
		return nil
	}
	if p.Reorder && p.DelayProb == 0 {
		p.DelayProb = 0.25
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = defaultMaxDelay
	}
	return &FaultInjector{
		plan:    p,
		rng:     rand.New(rand.NewSource(p.Seed)),
		ctlSeen: make(map[uint8]int),
	}
}

// Decide draws the fault verdict for one message about to be transmitted.
func (fi *FaultInjector) Decide(m *Message) FaultAction {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	var a FaultAction
	if m.Ctl != CtlNone && len(fi.plan.DropNthCtl) > 0 {
		fi.ctlSeen[m.Ctl]++
		if nth, ok := fi.plan.DropNthCtl[m.Ctl]; ok && fi.ctlSeen[m.Ctl] == nth {
			fi.Stats.TargetedDrops++
			a.Drop = true
			return a
		}
	}
	if fi.plan.Drop > 0 && fi.rng.Float64() < fi.plan.Drop {
		fi.Stats.Dropped++
		a.Drop = true
		return a
	}
	if fi.plan.Duplicate > 0 && fi.rng.Float64() < fi.plan.Duplicate {
		fi.Stats.Duplicated++
		a.Duplicate = true
		a.DupDelay = 1 + VTime(fi.rng.Int63n(int64(fi.plan.MaxDelay)))
	}
	if fi.plan.DelayProb > 0 && fi.rng.Float64() < fi.plan.DelayProb {
		fi.Stats.Delayed++
		a.Delay = 1 + VTime(fi.rng.Int63n(int64(fi.plan.MaxDelay)))
	}
	return a
}

// MaybeLoseEntry randomly evicts one translation-table entry (the
// soft-error model), reporting whether it did. The caller is t's one
// writer. A plan without TableLoss (never written after construction)
// draws nothing, so it returns before the injector's lock.
func (fi *FaultInjector) MaybeLoseEntry(t *TransTable) bool {
	if t == nil || fi.plan.TableLoss == 0 {
		return false
	}
	fi.mu.Lock()
	hit := fi.rng.Float64() < fi.plan.TableLoss
	var idx int
	if hit {
		if n := t.Len(); n > 0 {
			idx = fi.rng.Intn(n)
		} else {
			hit = false
		}
	}
	if hit {
		fi.Stats.TableEntriesLost++
	}
	fi.mu.Unlock()
	if hit {
		t.DropIndex(idx)
	}
	return hit
}

// Fork derives an independent injector for one rank's NIC: same plan, a
// stream seeded from the base seed and the rank. The sharded engine
// gives every NIC its own fork so each NIC's fault schedule depends only
// on its own transmit sequence — which is shard-count-invariant — rather
// than on the global interleaving of all NICs' draws, which is not.
// Targeted DropNthCtl counting becomes per-NIC under forks (the Nth
// control message *through that NIC*), which chaos plans that pin a
// specific victim already satisfy by addressing a single source rank.
func (fi *FaultInjector) Fork(rank int) *FaultInjector {
	if fi == nil {
		return nil
	}
	fi.mu.Lock()
	p := fi.plan
	fi.mu.Unlock()
	p.Seed += int64(rank+1) * int64(0x9E3779B97F4A7C15&0x7FFFFFFFFFFFFFFF)
	return &FaultInjector{
		plan:    p,
		rng:     rand.New(rand.NewSource(p.Seed)),
		ctlSeen: make(map[uint8]int),
	}
}

// add accumulates other into s, for summing per-NIC fork counters.
func (s *FaultStats) add(o FaultStats) {
	s.Dropped += o.Dropped
	s.Duplicated += o.Duplicated
	s.Delayed += o.Delayed
	s.TargetedDrops += o.TargetedDrops
	s.TableEntriesLost += o.TableEntriesLost
}

// Snapshot returns the counters accumulated so far.
func (fi *FaultInjector) Snapshot() FaultStats {
	if fi == nil {
		return FaultStats{}
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.Stats
}

// String renders a plan compactly for table headers and logs.
func (p FaultPlan) String() string {
	if !p.Enabled() {
		return "none"
	}
	var parts []string
	if p.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", p.Drop))
	}
	if p.Duplicate > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", p.Duplicate))
	}
	if p.DelayProb > 0 {
		parts = append(parts, fmt.Sprintf("delay=%g", p.DelayProb))
	} else if p.Reorder {
		parts = append(parts, "reorder")
	}
	if p.TableLoss > 0 {
		parts = append(parts, fmt.Sprintf("tableloss=%g", p.TableLoss))
	}
	keys := make([]int, 0, len(p.DropNthCtl))
	for c := range p.DropNthCtl {
		keys = append(keys, int(c))
	}
	sort.Ints(keys)
	for _, c := range keys {
		parts = append(parts, fmt.Sprintf("dropctl=%d:%d", c, p.DropNthCtl[uint8(c)]))
	}
	for _, r := range sortedRanks(p.KillAt) {
		parts = append(parts, fmt.Sprintf("kill=%d:%d", r, p.KillAt[r]))
	}
	for _, r := range sortedRanks(p.RestartAt) {
		parts = append(parts, fmt.Sprintf("restart=%d:%d", r, p.RestartAt[r]))
	}
	return strings.Join(parts, ",")
}

func sortedRanks(m map[int]VTime) []int {
	rs := make([]int, 0, len(m))
	for r := range m {
		rs = append(rs, r)
	}
	sort.Ints(rs)
	return rs
}
