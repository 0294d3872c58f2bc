package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"nmvgas/internal/runtime"
)

// --- wraparound semantics -------------------------------------------------

func TestRingWrapTotalVsRetained(t *testing.T) {
	r := newRing(5, 1)
	for i := 0; i < 17; i++ {
		r.Record(runtime.TraceEvent{Rank: i, Kind: runtime.TraceSend})
	}
	if r.Total() != 17 {
		t.Fatalf("Total = %d, want 17 (overwritten events still count)", r.Total())
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("retained %d, want capacity 5", len(evs))
	}
	// The oldest retained event is #12 (0-indexed): 17 recorded, 5 kept.
	for i, ev := range evs {
		if ev.Rank != 12+i {
			t.Fatalf("wraparound order broken: %v", evs)
		}
	}
}

func TestRingWrapFilterAndCountKind(t *testing.T) {
	r := newRing(4, 1)
	// Record 10 events alternating kinds; only the last 4 are retained:
	// ranks 6..9 with kinds exec,send,exec,send.
	for i := 0; i < 10; i++ {
		k := runtime.TraceSend
		if i%2 == 0 {
			k = runtime.TraceExec
		}
		r.Record(runtime.TraceEvent{Rank: i, Kind: k})
	}
	if n := r.CountKind(runtime.TraceSend); n != 2 {
		t.Fatalf("CountKind(send) on wrapped ring = %d, want 2", n)
	}
	got := r.Filter(func(ev runtime.TraceEvent) bool { return ev.Kind == runtime.TraceExec })
	if len(got) != 2 || got[0].Rank != 6 || got[1].Rank != 8 {
		t.Fatalf("Filter on wrapped ring = %v", got)
	}
}

func TestShardedRingMergesInArrivalOrder(t *testing.T) {
	r := newRing(64, 4)
	for i := 0; i < 32; i++ {
		r.Record(runtime.TraceEvent{Rank: i % 4, Info: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 32 {
		t.Fatalf("retained %d, want 32", len(evs))
	}
	for i, ev := range evs {
		if ev.Info != uint64(i) {
			t.Fatalf("merge order broken at %d: %v", i, ev)
		}
	}
}

// --- concurrent record vs dump (run with -race) ---------------------------

func TestRingConcurrentRecordAndDump(t *testing.T) {
	r := newRing(256, 4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Record(runtime.TraceEvent{
					Rank: rank, Kind: runtime.TraceSend,
					OpID: uint64(rank+1)<<48 | uint64(i),
				})
			}
		}(g)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Events()
			var sink bytes.Buffer
			_ = r.DumpChrome(&sink)
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if r.Total() != 4*2000 {
		t.Fatalf("Total = %d, want %d", r.Total(), 4*2000)
	}
}

// --- Journey and Chrome export --------------------------------------------

// journey returns every retained event carrying opID, in arrival order:
// the causal chain of one logical operation.
func journey(r *Ring, opID uint64) []runtime.TraceEvent {
	return r.Filter(func(ev runtime.TraceEvent) bool { return ev.OpID == opID })
}

// chromeDoc mirrors the export envelope for decoding in tests.
type chromeDoc struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"`
		TID   int            `json:"tid"`
		ID    string         `json:"id"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestDumpChromeIsValidJSON(t *testing.T) {
	r := newRing(16, 1)
	r.Record(runtime.TraceEvent{Kind: runtime.TraceSend, Rank: 1, OpID: 5, Span: runtime.SpanBegin, Time: 1500})
	r.Record(runtime.TraceEvent{Kind: runtime.TraceExec, Rank: 2, OpID: 5, Span: runtime.SpanEnd, Time: 4500})
	r.Record(runtime.TraceEvent{Kind: runtime.TraceMigrateStart, Rank: 0})
	var buf bytes.Buffer
	if err := r.DumpChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// metadata + 3 events
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("exported %d events, want 4", len(doc.TraceEvents))
	}
	var b, e, inst int
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "b":
			b++
			if ev.ID != "0x5" {
				t.Fatalf("span id %q, want 0x5", ev.ID)
			}
			if ev.TS != 1.5 {
				t.Fatalf("ts %v µs, want 1.5", ev.TS)
			}
		case "e":
			e++
		case "i":
			inst++
		}
	}
	if b != 1 || e != 1 || inst != 1 {
		t.Fatalf("phases b=%d e=%d i=%d", b, e, inst)
	}
}

// journeyAcceptance runs a migration-under-load workload and checks that
// a parcel sent at a migrated block reconstructs as one OpID-linked span
// chain (SpanBegin ... SpanEnd, same OpID) in the Chrome export.
func journeyAcceptance(t *testing.T, engine runtime.EngineKind) {
	t.Helper()
	w, err := runtime.NewWorld(runtime.Config{
		Ranks: 3, Mode: runtime.AGASNM, Engine: engine, Metrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	ring := Attach(w, 8192)
	echo := w.Register("echo", func(c *runtime.Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(1)
	w.MustWait(w.Proc(0).Migrate(g, 2))
	w.MustWait(w.Proc(0).Call(g, echo, nil))

	// Find the send → exec chain for a parcel aimed at the migrated block.
	sends := ring.Filter(func(ev runtime.TraceEvent) bool {
		return ev.Kind == runtime.TraceSend && ev.Block == g.Block() && ev.OpID != 0
	})
	if len(sends) == 0 {
		t.Fatal("no send event with an OpID for the migrated block")
	}
	var chained bool
	for _, s := range sends {
		j := journey(ring, s.OpID)
		if len(j) < 2 {
			continue
		}
		if j[0].Span == runtime.SpanBegin && j[len(j)-1].Span == runtime.SpanEnd &&
			j[len(j)-1].Kind == runtime.TraceExec {
			chained = true
			// Every hop carries the originator's id.
			for _, ev := range j {
				if ev.OpID != s.OpID {
					t.Fatalf("journey leaked a foreign OpID: %v", j)
				}
			}
		}
	}
	if !chained {
		t.Fatal("no OpID-linked begin→end span chain for the migrated block's parcel")
	}

	// The Chrome export must contain that chain as an async span pair.
	var buf bytes.Buffer
	if err := ring.DumpChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export invalid: %v", err)
	}
	begins := map[string]bool{}
	var paired bool
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "b" {
			begins[ev.ID] = true
		}
		if ev.Phase == "e" && begins[ev.ID] {
			paired = true
		}
	}
	if !paired {
		t.Fatal("chrome export has no begin/end async span pair")
	}
	if engine == runtime.EngineGo {
		// Satellite (a): EngineGo events must carry wall-clock stamps.
		var nonzero bool
		for _, ev := range ring.Events() {
			if ev.Time != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			t.Fatal("EngineGo trace events all have Time 0")
		}
	}
}

func TestJourneyAcceptanceDES(t *testing.T) { journeyAcceptance(t, runtime.EngineDES) }
func TestJourneyAcceptanceGo(t *testing.T)  { journeyAcceptance(t, runtime.EngineGo) }

func TestJourneyAcceptanceAllModes(t *testing.T) {
	for _, mode := range []runtime.Mode{runtime.PGAS, runtime.AGASSW, runtime.AGASNM} {
		mode := mode
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			w, err := runtime.NewWorld(runtime.Config{
				Ranks: 2, Mode: mode, Engine: runtime.EngineDES,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Stop)
			ring := Attach(w, 2048)
			echo := w.Register("echo", func(c *runtime.Ctx) { c.Continue(nil) })
			w.Start()
			lay, err := w.AllocCyclic(0, 64, 2)
			if err != nil {
				t.Fatal(err)
			}
			w.MustWait(w.Proc(0).Call(lay.BlockAt(1), echo, nil))
			sends := ring.Filter(func(ev runtime.TraceEvent) bool {
				return ev.Kind == runtime.TraceSend && ev.OpID != 0
			})
			if len(sends) == 0 {
				t.Fatal("no OpID on sends")
			}
			if j := journey(ring, sends[0].OpID); len(j) < 2 {
				t.Fatalf("journey too short: %v", j)
			}
		})
	}
}
