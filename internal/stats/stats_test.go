package stats

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := new(Histogram)
	if h.Mean() != 0 || h.Max() != 0 || h.P50() != 0 {
		t.Fatal("empty histogram must answer zeros")
	}
	for _, v := range []int64{10, 20, 30, 40} {
		h.Record(v)
	}
	if h.Count() != 4 || h.Mean() != 25 || h.Max() != 40 {
		t.Fatalf("count=%d mean=%v max=%d", h.Count(), h.Mean(), h.Max())
	}
	if p := h.P50(); p != 20 {
		t.Fatalf("P50 = %d", p)
	}
	if p := h.Percentile(100); p != 40 {
		t.Fatalf("P100 = %d", p)
	}
}

func TestHistogramPercentilesOnUniform(t *testing.T) {
	h := new(Histogram)
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	if p := h.P50(); p < 450 || p > 550 {
		t.Fatalf("P50 = %d", p)
	}
	if p := h.P99(); p < 950 || p > 1000 {
		t.Fatalf("P99 = %d", p)
	}
}

func TestHistogramReservoirBounded(t *testing.T) {
	h := new(Histogram)
	rng := rand.New(rand.NewSource(1))
	const n = maxExact * 3
	for i := 0; i < n; i++ {
		h.Record(int64(rng.Intn(1000)))
	}
	if h.Count() != n {
		t.Fatalf("Count = %d", h.Count())
	}
	if len(h.samples) > maxExact {
		t.Fatalf("reservoir grew to %d", len(h.samples))
	}
	// Percentiles stay statistically plausible after sampling.
	if p := h.P50(); p < 400 || p > 600 {
		t.Fatalf("sampled P50 = %d", p)
	}
}

// TestHistogramReservoirKeepsLaterSamples fills the exact buffer with one
// value and then records four times as many of another: a reservoir that
// samples uniformly holds about 80 % of the later value, so the median
// reads it. A zero-value Histogram must sample too — it is the only kind
// the runtime makes.
func TestHistogramReservoirKeepsLaterSamples(t *testing.T) {
	var h Histogram
	for i := 0; i < maxExact; i++ {
		h.Record(1)
	}
	for i := 0; i < 4*maxExact; i++ {
		h.Record(1000)
	}
	if p := h.P50(); p != 1000 {
		t.Fatalf("P50 = %d after %d samples of 1 then %d of 1000, want 1000", p, maxExact, 4*maxExact)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := new(Histogram)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Record(i)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "size", "latency_us", "mode")
	tb.AddRow(8, 1.25, "pgas")
	tb.AddRow(1024, 3.5, "agas-sw")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var sb strings.Builder
	if err := tb.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== Demo ==", "size", "latency_us", "1.25", "agas-sw", "----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("plain", `quo"te,comma`)
	csv := tb.CSV()
	want := "a,b\nplain,\"quo\"\"te,comma\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestTableRowFormatting(t *testing.T) {
	tb := NewTable("x", "c")
	tb.AddRow(3.14159)
	if got := tb.Rows[0][0]; got != "3.14" {
		t.Fatalf("float cell = %q", got)
	}
	tb.AddRow(int64(7))
	if got := tb.Rows[1][0]; got != "7" {
		t.Fatalf("int cell = %q", got)
	}
}
