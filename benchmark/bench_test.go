package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"nmvgas/vgas"
)

func TestPercentilePicker(t *testing.T) {
	// 1..1000: the median is 500, and p99 is the highest candidate with at
	// least ten samples beyond it (p99.9 would have one).
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	got := summarize(xs)
	if got.Samples != 1000 || got.P50 != 500 {
		t.Fatalf("samples %d p50 %v, want 1000 and 500", got.Samples, got.P50)
	}
	if got.TailPct != 99 || got.Tail != 990 || got.P99 != 990 || got.P999 != 0 {
		t.Fatalf("tail p%v=%v p99=%v p999=%v, want p99=990 and no p99.9", got.TailPct, got.Tail, got.P99, got.P999)
	}
	// 100 samples: exactly ten lie beyond p90, one beyond p99.
	if got := summarize(xs[:100]); got.TailPct != 90 || got.P99 != 0 {
		t.Fatalf("100 samples: tail p%v p99=%v, want p90 and no p99", got.TailPct, got.P99)
	}
	// Too few samples for any tail: the median and the count still stand.
	if got := summarize([]float64{3, 1, 2}); got.P50 != 2 || got.TailPct != 0 || got.Samples != 3 {
		t.Fatalf("3 samples: %+v", got)
	}
	if got := summarize(nil); got.Samples != 0 || got.P50 != 0 {
		t.Fatalf("no samples: %+v", got)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of even count = %v, want 2.5", m)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noParent, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "nested", Start: 10, End: 30},
		{ID: 2, Parent: 1, Name: "leaf", Start: 15, End: 20},
		// two children of root that overlap each other: 40..70 counts once
		{ID: 3, Parent: 0, Name: "overlapA", Start: 40, End: 60},
		{ID: 4, Parent: 0, Name: "overlapB", Start: 50, End: 70},
		// sticks out past its parent: only 90..100 is root's time
		{ID: 5, Parent: 0, Name: "overhang", Start: 90, End: 120},
		// parent 42 does not exist
		{ID: 6, Parent: 42, Name: "orphan", Start: 0, End: 50},
	}
	want := []int64{
		100 - 20 - 30 - 10, // root: nested 20, overlap union 30, overhang clipped 10
		20 - 5,
		5,
		20,
		20,
		30,
		50, // the orphan keeps its whole duration and costs nobody
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	tot := totalsByName(spans, got)
	if len(tot) != len(spans) || tot[0].Name != "orphan" {
		t.Errorf("totals not ordered by self time: %+v", tot)
	}
}

func TestRecorderLanesAndNilRecorder(t *testing.T) {
	var off *recorder
	id := off.begin("x", noParent)
	off.end(id)
	off.newLane(4).addOp("op", id, 0, 1, 1)
	if off.collect() != nil {
		t.Fatal("nil recorder collected spans")
	}

	rec := newRecorder()
	root := rec.begin("root", noParent)
	l := rec.newLane(2)
	for i := 0; i < 5; i++ {
		l.addOp("op", root, int64(i), int64(i+1), uint64(i+1))
	}
	l.add("migrate", root, 0, 9, 99, count{"sim_us", 1.5})
	child := rec.begin("child", root)
	rec.end(child)
	rec.end(root)
	spans := rec.collect()
	if len(spans) != 5 { // root, child, two ops (capped), one migrate (never capped)
		t.Fatalf("collected %d spans, want 5", len(spans))
	}
	for i, s := range spans {
		if int(s.ID) != i {
			t.Fatalf("span %d has ID %d", i, s.ID)
		}
		if s.Name != "root" && s.Parent != root {
			t.Errorf("%s: parent %d, want %d", s.Name, s.Parent, root)
		}
	}
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := writeChromeTrace(path, spans, selfTimes(spans)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("span file is not a JSON array of events: %v", err)
	}
	if len(events) != 2+3*2 { // two X events, three async begin/end pairs
		t.Fatalf("%d trace events, want 8", len(events))
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestSpecWithinContract(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, wl := range workloads {
		check("workload", wl.Name)
		if wl.Why == "" || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters (has %d)", wl.Name, len(wl.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		check("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		check("per-layer", m.Name)
	}
	// every row a probe claims to fill is a declared per-layer metric
	for _, p := range probes {
		for _, r := range p.rows {
			if !seen[r] {
				t.Errorf("probe fills %q, which is not a per-layer metric", r)
			}
		}
	}
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json differs from the tables in spec.go; regenerate it with: bash benchmark/run.sh -benchmark-json > BENCHMARK.json")
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(top, k)
	}
	if len(top) != 0 {
		t.Errorf("BENCHMARK.json has extra keys: %v", top)
	}
}

// resultLine extracts and parses the last line of a run's output.
func resultLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not a result object: %v\n%s", err, lines[len(lines)-1])
	}
	return r
}

func checkResult(t *testing.T, wl string, r result, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", wl, r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", wl, len(r.Metrics), len(defs))
	}
	for _, m := range defs {
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", wl, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", wl, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload end to end at 1/500 scale, untraced and
// traced, and checks that what is printed round-trips against the
// declared metrics.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for i := range workloads {
		wl := &workloads[i]
		var buf bytes.Buffer
		res, notes, err := measureEndToEnd(wl, 7, 0.05, 1.0/500)
		if err != nil {
			t.Fatal(err)
		}
		printResult(&buf, wl, endToEnd, res, notes)
		r := resultLine(t, buf.String())
		checkResult(t, wl.Name, r, endToEnd)
		for _, m := range endToEnd {
			if r.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, m.Name, r.Metrics[m.Name].Value)
			}
		}

		buf.Reset()
		path := filepath.Join(dir, wl.Name+".json")
		res, notes, err = measurePerLayer(io.Discard, wl, 7, 0.05, 1.0/500, path)
		if err != nil {
			t.Fatal(err)
		}
		printResult(&buf, wl, perLayer, res, notes)
		r = resultLine(t, buf.String())
		checkResult(t, wl.Name, r, perLayer)
		if r.Metrics["trace.spans"].Value < 8 {
			t.Errorf("%s: traced pass recorded %v spans", wl.Name, r.Metrics["trace.spans"].Value)
		}
		if r.Metrics["runtime.reliable.unacked_at_end"].Value != 0 {
			t.Errorf("%s: unacked_at_end = %v", wl.Name, r.Metrics["runtime.reliable.unacked_at_end"].Value)
		}
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: span file: %v", wl.Name, err)
		}
	}
}

// fixedPass runs wl for a fixed op count at 1/200 of its calibrated size.
func fixedPass(t *testing.T, wl *workload, seed int64) *passResult {
	t.Helper()
	p, err := runPass(wl, passOpts{
		seed: seed, warmScale: 1.0 / 200, fixedOps: int64(wl.WarmOps) / 200,
		hard: time.Now().Add(time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := p.verdict.failed(); f != 0 || p.wedged {
		t.Fatalf("%s seed %d: %d failed ops, wedged=%v: %v", wl.Name, seed, f, p.wedged, p.verdict.Notes)
	}
	return p
}

// TestDESDeterminism: the same seed gives the same simulation, bit for
// bit; another seed gives another table.
func TestDESDeterminism(t *testing.T) {
	var des []*workload
	for i := range workloads {
		if workloads[i].Engine == vgas.EngineDES {
			des = append(des, &workloads[i])
		} else {
			des = append(des, workloads[i].Twin)
		}
	}
	for _, wl := range des {
		a, b, c := fixedPass(t, wl, 11), fixedPass(t, wl, 11), fixedPass(t, wl, 12)
		type key struct {
			events           uint64
			parcels          int64
			simUs, simUsWarm float64
			forwards         uint64
			retransmits      uint64
			ops              int64
		}
		k := func(p *passResult) key {
			return key{p.end.events, p.end.stats.ParcelsRun, p.simUsPerOp(), p.simUsPerOpExact(),
				p.end.stats.NetForwards, p.end.stats.Delivery.Retransmits, p.end.ops}
		}
		if k(a) != k(b) {
			t.Errorf("%s: same seed, different runs:\n%+v\n%+v", wl.Name, k(a), k(b))
		}
		if diffWords(a.verdict.Image, b.verdict.Image) != 0 {
			t.Errorf("%s: same seed, different table image", wl.Name)
		}
		if diffWords(a.verdict.Image, c.verdict.Image) == 0 {
			t.Errorf("%s: seeds 11 and 12 left the same table image", wl.Name)
		}
		if k(a).events == 0 || k(a).simUs <= 0 {
			t.Errorf("%s: nothing simulated: %+v", wl.Name, k(a))
		}
	}
}

// TestChecksFire corrupts one word and one count and requires the
// correctness check to notice each.
func TestChecksFire(t *testing.T) {
	issued := []int64{40, 40, 40, 40}
	want := xorExpectedImage(5, 64, issued)
	got := append([]uint64(nil), want...)
	if diffWords(want, got) != 0 {
		t.Fatal("identical images differ")
	}
	got[17] ^= 1
	if n := diffWords(want, got); n != 1 {
		t.Fatalf("one corrupted word counted as %d", n)
	}
	// a lost update and a doubled update both change the image
	lost := xorExpectedImage(5, 64, []int64{40, 39, 40, 40})
	if diffWords(want, lost) == 0 {
		t.Fatal("an update that never ran left the image unchanged")
	}

	xor := findWorkload("des_churn")
	v := verdict{Attempted: 1000}
	checkCounters(&v, xor, vgas.WorldStats{ParcelsRun: 2000})
	if v.failed() != 0 {
		t.Fatalf("clean counters flagged: %v", v.Notes)
	}
	checkCounters(&v, xor, vgas.WorldStats{ParcelsRun: 1999})
	if v.failed() != 1 {
		t.Fatalf("one missing parcel run gave %d failures", v.failed())
	}
	v = verdict{Attempted: 1000}
	checkCounters(&v, xor, vgas.WorldStats{ParcelsRun: 2000, Unacked: 3})
	if v.failed() != 3 {
		t.Fatalf("three unacked messages gave %d failures", v.failed())
	}
	v = verdict{Attempted: 10, WrongWords: 1}
	var r result
	r.absorb(v)
	if r.Failed != 1 || r.Attempted != 10 {
		t.Fatalf("verdict not absorbed: %+v", r)
	}
}

// TestReferenceSeconds: a timed pass reports the median over its slices
// of each slice's rate or cost corrected by that slice's host slowdown.
func TestReferenceSeconds(t *testing.T) {
	res := &passResult{
		setupS: 3, setupSlow: 1.5,
		slices: []slice{
			{wall: 0.1, ops: 1000, cpu: 0.2, events: 5000, slow: 1},  // 10000 ops/s on a nominal host
			{wall: 0.1, ops: 500, cpu: 0.2, events: 2500, slow: 2},   // half the rate on a host half as fast: the same
			{wall: 0.1, ops: 2000, cpu: 0.2, events: 10000, slow: 4}, // an outlier the median drops
			{wall: 0.1, ops: 0, cpu: 0.01, events: 0, slow: 9},       // a slice without work does not count
		},
	}
	if got := res.opsPerS(); got != 10000 {
		t.Errorf("opsPerS = %v, want 10000", got)
	}
	if got := res.eventsPerS(); got != 50000 {
		t.Errorf("eventsPerS = %v, want 50000", got)
	}
	if got := res.cpuUsPerOp(); got != 200 {
		t.Errorf("cpuUsPerOp = %v, want 200", got)
	}
	if got := res.slowdown(); got != 2 {
		t.Errorf("slowdown = %v, want 2", got)
	}
	if got := res.setupRefS(); got != 2 {
		t.Errorf("setupRefS = %v, want 2", got)
	}
	if got := res.timedWall(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("timedWall = %v, want the four slices' 0.4", got)
	}
	if s := hostSlowdown(); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("hostSlowdown = %v", s)
	}
}

// TestSliceSamples: a latency sample belongs to the slice it ended in,
// and the rests it was in flight across are taken out of it.
func TestSliceSamples(t *testing.T) {
	res := &passResult{
		warmT1: 80,
		slices: []slice{{t0: 100, t1: 200, slow: 1, ops: 1, wall: 1}, {t0: 300, t1: 400, slow: 2, ops: 1, wall: 1}},
	}
	res.app.lat[kindGet] = []latSample{
		{end: 150, dur: 20},  // inside the first slice
		{end: 390, dur: 40},  // inside the second
		{end: 320, dur: 150}, // 170..320: spans the rest 200..300, so 50 of running
		{end: 350, dur: 300}, // 50..350: spans 80..100 and 200..300, so 180
		{end: 110, dur: 15},  // 95..110: started 5 into the first rest, so 10
		{end: 250, dur: 10},  // ended during a rest: the engine was not running, cannot happen, dropped
		{end: 90, dur: 5},    // warm-up
	}
	res.app.lat[kindPut] = []latSample{{end: 180, dur: 60}}
	got := res.sliceSamples(kindGet, kindPut)
	want := [][]float64{{0.010, 0.020, 0.060}, {0.050, 0.180, 0.040}}
	if len(got) != 2 || !equalFloats(got[0], want[0]) || !equalFloats(got[1], want[1]) {
		t.Fatalf("samples per slice = %v, want %v", got, want)
	}
	if n := len(res.latencies(kindGet)); n != 5 {
		t.Errorf("%d get samples in slices, want 5", n)
	}
	// slice medians 0.020 µs and 0.050/2 µs, median of the two 0.0225
	if p50 := res.opP50Us(); math.Abs(p50-0.0225) > 1e-12 {
		t.Errorf("opP50Us = %v, want 0.0225", p50)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

// TestPauseResumeKeepsEveryOp runs both goroutine-engine workloads through
// several slices, each followed by a rest, and requires a clean verdict:
// closing and reopening the windows must neither lose nor repeat an op.
func TestPauseResumeKeepsEveryOp(t *testing.T) {
	for _, name := range []string{"go_parcels", "go_rma"} {
		p, err := runPass(findWorkload(name), passOpts{
			seed: 5, seconds: 3.5 * sliceDur.Seconds(), warmScale: 1.0 / 500, hard: time.Now().Add(time.Minute),
		})
		if err != nil {
			t.Fatal(err)
		}
		if f := p.verdict.failed(); f != 0 || p.wedged {
			t.Errorf("%s: %d failed ops, wedged=%v: %v", name, f, p.wedged, p.verdict.Notes)
		}
		if len(p.slices) != 4 {
			t.Errorf("%s: %d slices, want 4", name, len(p.slices))
		}
		for i, s := range p.slices {
			if s.ops == 0 || !(s.slow > 0) {
				t.Errorf("%s: slice %d did %d ops at slowdown %v", name, i, s.ops, s.slow)
			}
		}
	}
}
