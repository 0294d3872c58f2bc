// Package metrics is the runtime's export layer: a small dependency-free
// registry of counters, gauges and percentile summaries
// with labels (mode/engine/rank), encoders for the Prometheus text
// exposition format and a JSON snapshot, a periodic sampler producing
// throughput/queue-depth/NIC-table time series, and an optional net/http
// endpoint. The registry is write-optimized: series handles are resolved
// once and updated through atomics, so publishing does not contend with
// the runtime's hot paths.
package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind string

const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
	KindSummary Kind = "summary"
)

// Label is one name=value dimension on a series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing series.
type Counter struct{ v atomic.Int64 }

// Set jumps the counter to v (used when mirroring an external cumulative
// count, e.g. a WorldStats snapshot).
func (c *Counter) Set(v int64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a series that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Summary publishes externally computed quantiles (the runtime's
// stats.Histogram already knows its percentiles; a Summary mirrors them
// into the export layer without re-binning).
type Summary struct {
	mu    sync.Mutex
	count int64
	sum   float64
	q     map[float64]float64 // quantile (0..1) -> value
}

// Set replaces the summary's state.
func (s *Summary) Set(count int64, sum float64, quantiles map[float64]float64) {
	s.mu.Lock()
	s.count, s.sum = count, sum
	s.q = quantiles
	s.mu.Unlock()
}

type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	s      *Summary
}

type family struct {
	name, help string
	kind       Kind
	mu         sync.Mutex
	series     []*series
	byKey      map[string]*series
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind Kind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

func (f *family) get(labels []Label) *series {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labels: append([]Label(nil), labels...)}
	switch f.kind {
	case KindCounter:
		s.c = &Counter{}
	case KindGauge:
		s.g = &Gauge{}
	case KindSummary:
		s.s = &Summary{}
	}
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s
}

// Counter returns (creating on first use) the counter series name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.family(name, help, KindCounter).get(labels).c
}

// Gauge returns (creating on first use) the gauge series name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.family(name, help, KindGauge).get(labels).g
}

// Summary returns (creating on first use) the summary series
// name{labels}; quantile values are pushed via Summary.Set.
func (r *Registry) Summary(name, help string, labels ...Label) *Summary {
	return r.family(name, help, KindSummary).get(labels).s
}

// ---------------------------------------------------------------------
// Prometheus text exposition

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func writeLabels(b *strings.Builder, labels []Label, extra ...Label) {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `%s=%q`, l.Name, escapeLabel(l.Value))
	}
	b.WriteByte('}')
}

func fmtFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus encodes the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		ss := append([]*series(nil), f.series...)
		f.mu.Unlock()
		if len(ss) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ss {
			switch f.kind {
			case KindCounter:
				b.WriteString(f.name)
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %d\n", s.c.Value())
			case KindGauge:
				b.WriteString(f.name)
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %s\n", fmtFloat(s.g.Value()))
			case KindSummary:
				s.s.mu.Lock()
				count, sum := s.s.count, s.s.sum
				qs := make([]float64, 0, len(s.s.q))
				for q := range s.s.q {
					qs = append(qs, q)
				}
				sort.Float64s(qs)
				for _, q := range qs {
					b.WriteString(f.name)
					writeLabels(&b, s.labels, L("quantile", fmtFloat(q)))
					fmt.Fprintf(&b, " %s\n", fmtFloat(s.s.q[q]))
				}
				s.s.mu.Unlock()
				fmt.Fprintf(&b, "%s_sum", f.name)
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %s\n", fmtFloat(sum))
				fmt.Fprintf(&b, "%s_count", f.name)
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %d\n", count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ---------------------------------------------------------------------
// JSON snapshot

// SeriesSnapshot is one series in the JSON export.
type SeriesSnapshot struct {
	Labels    map[string]string  `json:"labels,omitempty"`
	Value     *float64           `json:"value,omitempty"`
	Count     *int64             `json:"count,omitempty"`
	Sum       *float64           `json:"sum,omitempty"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// FamilySnapshot is one metric family in the JSON export.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Kind   Kind             `json:"kind"`
	Help   string           `json:"help,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		f.mu.Lock()
		ss := append([]*series(nil), f.series...)
		f.mu.Unlock()
		fs := FamilySnapshot{Name: f.name, Kind: f.kind, Help: f.help}
		for _, s := range ss {
			snap := SeriesSnapshot{}
			if len(s.labels) > 0 {
				snap.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					snap.Labels[l.Name] = l.Value
				}
			}
			switch f.kind {
			case KindCounter:
				v := float64(s.c.Value())
				snap.Value = &v
			case KindGauge:
				v := s.g.Value()
				snap.Value = &v
			case KindSummary:
				s.s.mu.Lock()
				n, sum := s.s.count, s.s.sum
				snap.Quantiles = make(map[string]float64, len(s.s.q))
				for q, v := range s.s.q {
					snap.Quantiles[fmtFloat(q)] = v
				}
				s.s.mu.Unlock()
				snap.Count, snap.Sum = &n, &sum
			}
			fs.Series = append(fs.Series, snap)
		}
		out = append(out, fs)
	}
	return out
}

// WriteJSON encodes the snapshot as JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"families": r.Snapshot()})
}

// ---------------------------------------------------------------------
// Validation (used by the CI smoke test and golden-schema checks)

// ValidatePrometheus parses a Prometheus text exposition and returns an
// error on the first malformed line. It understands comments, blank
// lines, and `name{labels} value [timestamp]` samples.
func ValidatePrometheus(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // lines up to 1 MiB; the buffer grows to fit
	n := 0
	samples := 0
	for sc.Scan() {
		n++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line
		// Metric name: [a-zA-Z_:][a-zA-Z0-9_:]*
		i := 0
		for i < len(rest) {
			c := rest[i]
			if c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(i > 0 && c >= '0' && c <= '9') {
				i++
				continue
			}
			break
		}
		if i == 0 {
			return fmt.Errorf("metrics: line %d: no metric name: %q", n, line)
		}
		rest = rest[i:]
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, "}")
			if end < 0 {
				return fmt.Errorf("metrics: line %d: unterminated label set: %q", n, line)
			}
			rest = rest[end+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return fmt.Errorf("metrics: line %d: want `value [timestamp]`: %q", n, line)
		}
		if fields[0] != "+Inf" && fields[0] != "-Inf" && fields[0] != "NaN" {
			if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
				return fmt.Errorf("metrics: line %d: bad value %q: %v", n, fields[0], err)
			}
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("metrics: exposition contains no samples")
	}
	return nil
}
