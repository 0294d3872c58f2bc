package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"nmvgas/internal/runtime"
	"nmvgas/internal/trace"
)

func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests", L("mode", "pgas"))
	c.Set(5)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if again := r.Counter("reqs_total", "requests", L("mode", "pgas")); again != c {
		t.Fatal("same name+labels returned a different series")
	}
	if other := r.Counter("reqs_total", "requests", L("mode", "agas-nm")); other == c {
		t.Fatal("different labels shared a series")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}

	s := r.Summary("pct", "percentiles")
	s.Set(3, 60, map[float64]float64{0.5: 10, 0.99: 40})
	if again := r.Summary("pct", "percentiles"); again != s {
		t.Fatal("same summary name returned a different series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering x as a gauge did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestPrometheusExportValidates(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a counter", L("mode", "pgas"), L("engine", "des")).Set(12)
	r.Gauge("b", "a gauge").Set(math.Inf(1))
	r.Summary("c_ns", "a rank summary", L("rank", "0")).Set(1, 3, map[float64]float64{0.99: 3})
	r.Summary("d_ns", "a summary", L("path", "put")).Set(2, 8, map[float64]float64{0.5: 4})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`a_total{mode="pgas",engine="des"} 12`,
		"# TYPE a_total counter",
		"b +Inf",
		`c_ns{rank="0",quantile="0.99"} 3`,
		`c_ns_count{rank="0"} 1`,
		`d_ns{path="put",quantile="0.5"} 4`,
		`d_ns_count{path="put"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if err := ValidatePrometheus(strings.NewReader(text)); err != nil {
		t.Fatalf("self-validation failed: %v\n%s", err, text)
	}
}

func TestValidatePrometheusRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",                       // no samples
		"123name 4\n",            // name starts with a digit
		"ok{unterminated 4\n",    // unterminated labels
		"name notanumber\n",      // bad value
		"name 1 2 3\n",           // too many fields
		"# only comments here\n", // no samples
	} {
		if err := ValidatePrometheus(strings.NewReader(bad)); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
	good := "# HELP x y\nx{a=\"b\"} 1\nnan_metric NaN\n"
	if err := ValidatePrometheus(strings.NewReader(good)); err != nil {
		t.Fatalf("rejected valid exposition: %v", err)
	}
}

func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Set(3)
	r.Summary("h", "").Set(1, 0.5, map[float64]float64{0.5: 0.5})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Families []FamilySnapshot `json:"families"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(doc.Families) != 2 {
		t.Fatalf("families = %d", len(doc.Families))
	}
	byName := map[string]FamilySnapshot{}
	for _, f := range doc.Families {
		byName[f.Name] = f
	}
	if v := byName["hits_total"].Series[0].Value; v == nil || *v != 3 {
		t.Fatalf("counter snapshot = %v", v)
	}
	if h := byName["h"].Series[0]; h.Count == nil || *h.Count != 1 || h.Quantiles["0.5"] != 0.5 {
		t.Fatalf("summary snapshot = %+v", h)
	}
}

// worldForTest runs a small migrating workload with metrics on.
func worldForTest(t *testing.T, engine runtime.EngineKind) *runtime.World {
	t.Helper()
	w, err := runtime.NewWorld(runtime.Config{
		Ranks: 3, Mode: runtime.AGASNM, Engine: engine, Metrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	echo := w.Register("echo", func(c *runtime.Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := lay.BlockAt(1)
	w.MustWait(w.Proc(0).Call(g, echo, nil))
	w.MustWait(w.Proc(0).Migrate(g, 2))
	w.MustWait(w.Proc(0).Call(g, echo, nil))
	w.MustWait(w.Proc(0).Put(g, []byte{1, 2, 3}))
	if _, err := w.Wait(w.Proc(0).Get(g, 3)); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPublishWorld(t *testing.T) {
	w := worldForTest(t, runtime.EngineDES)
	reg := NewRegistry()
	pub := PublishWorld(reg, w)
	pub.Refresh()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := ValidatePrometheus(strings.NewReader(text)); err != nil {
		t.Fatalf("publisher output invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		"nmvgas_parcels_sent_total", "nmvgas_migrations_total",
		`nmvgas_rank_parcels_run{mode="agas-nm"`, `rank="2"`,
		`nmvgas_latency_ns{mode="agas-nm"`, `path="parcel_exec"`, `path="mig_total"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("publisher output missing %q:\n%s", want, text)
		}
	}
	// The workload migrated once; the mirrored counter must agree.
	if !strings.Contains(text, "nmvgas_migrations_total") {
		t.Fatal("no migrations counter")
	}
	s := w.Stats()
	if s.Migrations != 1 {
		t.Fatalf("world ran %d migrations, want 1", s.Migrations)
	}
	if !s.Latencies.Enabled || s.Latencies.Path[runtime.LatParcelExec].Count == 0 {
		t.Fatalf("latency histograms empty with Metrics on: %+v", s.Latencies)
	}
	if n := s.Latencies.Path[runtime.LatMigTotal].Count; n != 1 {
		t.Fatalf("mig_total count = %d, want 1", n)
	}
}

func TestSamplerDES(t *testing.T) {
	w, err := runtime.NewWorld(runtime.Config{
		Ranks: 2, Mode: runtime.PGAS, Engine: runtime.EngineDES,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	echo := w.Register("echo", func(c *runtime.Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(w)
	s.RunDES(1000, 3)
	for i := 0; i < 50; i++ {
		w.MustWait(w.Proc(0).Call(lay.BlockAt(1), echo, nil))
	}
	ss := s.Samples()
	if len(ss) != 3 {
		t.Fatalf("samples = %d, want 3", len(ss))
	}
	if ss[1].T <= ss[0].T {
		t.Fatalf("sample times not increasing: %+v", ss)
	}
	if ss[len(ss)-1].ParcelsRun == 0 {
		t.Fatal("sampler saw no executions")
	}
	reg := NewRegistry()
	s.Publish(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nmvgas_sampled_throughput_per_s") {
		t.Fatal("sampler gauges not published")
	}
}

// TestQueueDepthIsOneBacklog: the per-rank queue-depth gauge and the
// sampler read the same backlog World.QueueDepths reports — on DES the
// rank's pending events, which a driver-queued burst makes nonzero.
func TestQueueDepthIsOneBacklog(t *testing.T) {
	w, err := runtime.NewWorld(runtime.Config{Ranks: 3, Mode: runtime.AGASNM, Engine: runtime.EngineDES})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	echo := w.Register("echo", func(c *runtime.Ctx) {})
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.Proc(1).Invoke(lay.BlockAt(2), echo, nil)
	}
	depths := w.QueueDepths()
	if depths[1] == 0 {
		t.Fatalf("driver-queued backlog not visible: %v", depths)
	}
	reg := NewRegistry()
	PublishWorld(reg, w).Refresh()
	total := 0
	for r, d := range depths {
		total += d
		lbl := []Label{L("mode", "agas-nm"), L("engine", "des"), L("rank", strconv.Itoa(r))}
		if got := reg.Gauge("nmvgas_rank_queue_depth", "", lbl...).Value(); got != float64(d) {
			t.Errorf("rank %d: nmvgas_rank_queue_depth %v, QueueDepths %d", r, got, d)
		}
	}
	if got := NewSampler(w).Sample().QueueDepth; got != int64(total) {
		t.Errorf("sampler queue depth %d, QueueDepths sum %d", got, total)
	}
	w.Drain()
}

func TestHTTPHandler(t *testing.T) {
	w := worldForTest(t, runtime.EngineDES)
	reg := NewRegistry()
	pub := PublishWorld(reg, w)
	// A spare world, never started, lends the handler a ring to serve.
	spare, err := runtime.NewWorld(runtime.Config{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(spare.Stop)
	ring := trace.Attach(spare, 64)
	ring.Record(runtime.TraceEvent{Kind: runtime.TraceSend, OpID: 1, Span: runtime.SpanBegin})
	h := Handler(reg, HandlerOptions{Refresh: pub.Refresh, Ring: ring})

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	if rec := get("/metrics"); rec.Code != 200 {
		t.Fatalf("/metrics -> %d", rec.Code)
	} else if err := ValidatePrometheus(rec.Body); err != nil {
		t.Fatalf("/metrics invalid: %v", err)
	}
	if rec := get("/metrics.json"); rec.Code != 200 || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("/metrics.json -> %d, valid=%v", rec.Code, json.Valid(rec.Body.Bytes()))
	}
	if rec := get("/trace.json"); rec.Code != 200 || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("/trace.json -> %d", rec.Code)
	}
	if rec := get("/"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "/metrics") {
		t.Fatalf("index -> %d", rec.Code)
	}
	if rec := get("/nope"); rec.Code != 404 {
		t.Fatalf("/nope -> %d", rec.Code)
	}
}

func TestMetricsOffDisablesLatencies(t *testing.T) {
	w, err := runtime.NewWorld(runtime.Config{
		Ranks: 2, Mode: runtime.AGASNM, Engine: runtime.EngineDES,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	echo := w.Register("echo", func(c *runtime.Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.MustWait(w.Proc(0).Call(lay.BlockAt(1), echo, nil))
	if w.Stats().Latencies.Enabled {
		t.Fatal("latencies enabled without Config.Metrics")
	}
	reg := NewRegistry()
	pub := PublishWorld(reg, w)
	pub.Refresh()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "nmvgas_latency_ns") {
		t.Fatal("latency series exported with Metrics off")
	}
}

// TestRefreshAndSampleOnRunningGoWorld: the publisher's Refresh and the
// sampler's Sample read each rank's counters and NIC table on the rank's
// token while a goroutine-engine world runs traffic and migrations, and
// every read lands. Under -race a read off the owner is reported.
func TestRefreshAndSampleOnRunningGoWorld(t *testing.T) {
	w, err := runtime.NewWorld(runtime.Config{Ranks: 3, Mode: runtime.AGASNM, Engine: runtime.EngineGo, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	echo := w.Register("echo", func(c *runtime.Ctx) { c.Continue(nil) })
	w.Start()
	lay, err := w.AllocCyclic(0, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			g := lay.BlockAt(uint32(i % 3))
			if _, err := w.Wait(w.Proc(i%3).Call(g, echo, nil)); err != nil {
				t.Error(err)
				return
			}
			if i%20 == 0 {
				if _, err := w.Wait(w.Proc(0).Migrate(g, (i/20)%3)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	reg := NewRegistry()
	pub, s := PublishWorld(reg, w), NewSampler(w)
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		pub.Refresh()
		s.Sample()
	}
	if t.Failed() {
		return
	}
	if last := s.Samples(); last[len(last)-1].ParcelsRun < 200 {
		t.Fatalf("the last sample saw %d parcels run, want the workload's 200 or more", last[len(last)-1].ParcelsRun)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePrometheus(strings.NewReader(buf.String())); err != nil {
		t.Fatalf("publisher output invalid: %v", err)
	}
}
