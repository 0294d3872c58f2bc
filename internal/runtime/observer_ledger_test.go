package runtime

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nmvgas/internal/agas"
	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
)

// observerRecorder is the ledger's tracer: a count per kind and an FNV-64
// of the ordered event stream. DES delivers events in one deterministic
// order, so the hash pins every field of every event.
type observerRecorder struct {
	counts map[TraceKind]int
	h      hash.Hash64
}

func newObserverRecorder() *observerRecorder {
	return &observerRecorder{counts: make(map[TraceKind]int), h: fnv.New64()}
}

func (r *observerRecorder) record(ev TraceEvent) {
	r.counts[ev.Kind]++
	var b [8 * 7]byte
	for i, v := range []uint64{uint64(ev.Time), uint64(ev.Rank), uint64(ev.Kind),
		uint64(ev.Block), ev.Info, ev.OpID, uint64(ev.Span)} {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	r.h.Write(b[:])
}

// observerScenario drives one workload on a 4-rank DES world that has not
// started yet.
type observerScenario struct {
	name   string
	modes  []Mode
	mutate func(*Config)
	run    func(t *testing.T, w *World)
}

var observerScenarios = []observerScenario{
	{name: "plain", modes: allModes,
		run: func(t *testing.T, w *World) { equivProgram(t, w) }},
	{name: "faults", modes: allModes,
		mutate: withFaults(netsim.FaultPlan{Drop: 0.05, Duplicate: 0.02, Reorder: true}),
		run:    func(t *testing.T, w *World) { equivProgram(t, w) }},
	{name: "nack-to-host", modes: allModes,
		mutate: func(c *Config) { c.Policy = netsim.Policy{NackToHost: true} },
		run:    func(t *testing.T, w *World) { equivProgram(t, w) }},
	{name: "coalesce", modes: allModes,
		mutate: func(c *Config) { c.Coalesce = CoalesceConfig{MaxParcels: 4} },
		run:    func(t *testing.T, w *World) { equivProgram(t, w) }},
	{name: "repl-inval", modes: allModes,
		run: func(t *testing.T, w *World) { replEquivProgram(t, w) }},
	{name: "repl-update", modes: allModes,
		mutate: func(c *Config) { c.Coherence = agas.WriteUpdate },
		run:    func(t *testing.T, w *World) { replEquivProgram(t, w) }},
	{name: "hop-cap-abandon", modes: []Mode{AGASNM},
		mutate: func(c *Config) { c.Reliability = ReliabilityConfig{Force: true, MaxAttempts: 2} },
		run:    hopCapAbandonProgram},
	{name: "kill-rejoin", modes: allModes,
		mutate: func(c *Config) { c.Reliability = relStress },
		run:    killRejoinProgram},
}

// hopCapAbandonProgram poisons two NICs to point a never-allocated block
// at each other: the send trips the hop budget, bounces, and is
// abandoned (TestForwardingLoopDegradesToAbandon's setup).
func hopCapAbandonProgram(t *testing.T, w *World) {
	nop := w.Register("noop", func(c *Ctx) {})
	w.Start()
	w.net.State(1, func(st *netsim.TransState) { st.InstallRoute(999, 2) })
	w.net.State(2, func(st *netsim.TransState) { st.InstallRoute(999, 1) })
	w.Proc(0).Invoke(gas.New(1, 999, 0), nop, nil)
	w.Drain()
	if w.DeliveryStats().Abandoned == 0 {
		t.Fatal("poisoned route was never abandoned")
	}
	w.Stop()
}

// killRejoinProgram crashes a replicated block's master, waits for the
// promotion, re-admits the rank and (migrating modes) retires another.
func killRejoinProgram(t *testing.T, w *World) {
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(0)
	w.MustWait(w.Proc(0).Put(g, []byte{5, 5}))
	if err := w.ReplicateLive(lay, 2); err != nil {
		t.Fatal(err)
	}
	w.Kill(1)
	w.MustWait(w.Proc(0).Put(g, []byte{6, 6}))
	if !w.AwaitMember(1, MemberDead, 20*time.Second) {
		t.Fatalf("rank 1 never declared dead: %+v", w.MembershipStats())
	}
	if err := w.Join(1); err != nil {
		t.Fatal(err)
	}
	if !w.AwaitMember(1, MemberAlive, 20*time.Second) {
		t.Fatalf("rank 1 never rejoined: state=%v", w.MemberState(1))
	}
	w.MustWait(w.Proc(1).Get(g, 2))
	if w.Config().Mode != PGAS {
		if err := w.Retire(2); err != nil {
			t.Fatal(err)
		}
		w.MustWait(w.Proc(3).Get(g, 2))
	}
	w.Stop()
}

func observerRow(t *testing.T, sc observerScenario, mode Mode) string {
	cfg := Config{Ranks: 4, Mode: mode, Engine: EngineDES, Metrics: true, Heat: HeatConfig{Enabled: true}}
	if sc.mutate != nil {
		sc.mutate(&cfg)
	}
	w := testWorld(t, cfg)
	rec := newObserverRecorder()
	w.SetTracer(rec.record)
	sc.run(t, w)

	var kinds []string
	for k := TraceSend; k <= TraceRehome; k++ {
		if n := rec.counts[k]; n > 0 {
			kinds = append(kinds, fmt.Sprintf("%v:%d", k, n))
		}
	}
	var lat []string
	for _, s := range w.Latencies().Path {
		lat = append(lat, fmt.Sprintf("%+v", s))
	}
	return fmt.Sprintf("%s %v events=%d clock=%d kinds=[%s] stream=%016x lat=[%s] heat=%d top=%+v",
		sc.name, mode, w.Engine().Processed(), w.Now(), strings.Join(kinds, " "), rec.h.Sum64(),
		strings.Join(lat, " "), w.HeatSampled(), w.HeatTop(8))
}

// TestObserverLedgerMatchesParent holds the three observers — tracer,
// latency histograms, heat sampler — to what they saw at the commit
// before they shared one observation point. Every scenario runs on DES
// with all three on (heat unsampled); a row is the event count, end
// clock, trace count per kind, a hash of the ordered trace stream, the
// latency summaries and the heat totals. Moving where or when a step is
// observed moves a row; a change of plumbing moves none.
func TestObserverLedgerMatchesParent(t *testing.T) {
	var got []string
	for _, sc := range observerScenarios {
		for _, mode := range sc.modes {
			got = append(got, observerRow(t, sc, mode))
		}
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "observer_ledger"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, ln := range strings.Split(string(raw), "\n") {
		if ln != "" && !strings.HasPrefix(ln, "#") {
			want = append(want, ln)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("testdata/observer_ledger: %d rows, want %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("ledger row %d moved\n got: %s\nwant: %s", i, got[i], want[i])
		}
	}
}
