package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The bench-side span recorder. Spans wrap the calls the driver makes
// into each layer (world construction, allocation, engine slices,
// migrations, sampled operations, verification); spans inside the
// program are a later issue. Everything stays in memory until the run
// ends.
//
// A nil *recorder (and the nil *lane it hands out) is tracing off: every
// method is a no-op, so the untraced pass executes the same driver code.

// noParent marks a root span.
const noParent = int32(-1)

// count is one named quantity measured at a span boundary (event and
// counter deltas of an engine slice, simulated start/end of a migration).
type count struct {
	Name  string
	Value float64
}

type span struct {
	ID     int32
	Parent int32
	Name   string
	Lane   int32 // 0 = driver, 1+r = rank or client r
	Start  int64 // ns since the recorder's epoch
	End    int64
	Op     uint64 // spans of one operation share it; 0 = none
	Counts []count
}

func (s span) dur() int64 { return s.End - s.Start }

// lane is one goroutine's span buffer. Only its owner appends, so the
// hot path takes no lock.
type lane struct {
	id    int32
	spans []span
	limit int // how many operation spans addOp keeps
	ops   int
}

// recorder owns the lanes. Lane 0 belongs to the driver goroutine and is
// the only one whose spans can be parents: a driver span's index in its
// lane is its final ID, so handlers can name it while the run is live.
type recorder struct {
	epoch time.Time
	lanes []*lane
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), lanes: []*lane{{}}}
}

// now is nanoseconds since the recorder's epoch (0 when tracing is off).
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// newLane registers a span buffer for one rank or client. Lanes must be
// created before the goroutines that own them start (the recorder itself
// is not locked). limit bounds how many operation spans the lane keeps.
func (r *recorder) newLane(limit int) *lane {
	if r == nil {
		return nil
	}
	l := &lane{id: int32(len(r.lanes)), limit: limit}
	r.lanes = append(r.lanes, l)
	return l
}

// begin opens a driver span under parent (noParent for a root) and
// returns its ID. Driver goroutine only.
func (r *recorder) begin(name string, parent int32) int32 {
	if r == nil {
		return noParent
	}
	d := r.lanes[0]
	d.spans = append(d.spans, span{Parent: parent, Name: name, Start: r.now(), End: -1})
	return int32(len(d.spans) - 1)
}

// end closes the driver span begin returned, attaching counts.
func (r *recorder) end(id int32, counts ...count) {
	if r == nil || id < 0 {
		return
	}
	s := &r.lanes[0].spans[id]
	s.End = r.now()
	s.Counts = counts
}

// add records an already-finished span (a migration whose start time
// the application kept).
func (l *lane) add(name string, parent int32, start, end int64, op uint64, counts ...count) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{Parent: parent, Name: name, Lane: l.id, Start: start, End: end, Op: op, Counts: counts})
}

// addOp is add for sampled operations, of which only the first limit are
// kept so the span file stays loadable.
func (l *lane) addOp(name string, parent int32, start, end int64, op uint64) {
	if l == nil || l.ops >= l.limit {
		return
	}
	l.ops++
	l.add(name, parent, start, end, op)
}

// collect merges every lane into one slice with final IDs. Spans still
// open are closed at the collection time.
func (r *recorder) collect() []span {
	if r == nil {
		return nil
	}
	end := r.now()
	var out []span
	for _, l := range r.lanes {
		for _, s := range l.spans {
			s.ID = int32(len(out))
			if s.End < 0 {
				s.End = end
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span (indexed like spans), its duration minus
// the part of its interval that its child spans cover. Children are
// clipped to the parent's interval and overlapping children are counted
// once. A span whose parent ID does not exist is an orphan and is treated
// as a root: it takes nothing away from anyone.
func selfTimes(spans []span) []int64 {
	byID := make(map[int32]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent == noParent {
			continue
		}
		pi, ok := byID[s.Parent]
		if !ok {
			continue
		}
		p := spans[pi]
		a, b := s.Start, s.End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			kids[pi] = append(kids[pi], iv{a, b})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		ks := kids[i]
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(x, y int) bool { return ks[x].a < ks[y].a })
		var covered int64
		cur := ks[0]
		for _, k := range ks[1:] {
			if k.a <= cur.b {
				if k.b > cur.b {
					cur.b = k.b
				}
				continue
			}
			covered += cur.b - cur.a
			cur = k
		}
		covered += cur.b - cur.a
		self[i] -= covered
	}
	return self
}

// spanTotals aggregates spans by name.
type spanTotal struct {
	Name        string
	N           int
	TotalNs     int64
	SelfNs      int64
	MedianDurNs float64
}

func totalsByName(spans []span, self []int64) []spanTotal {
	idx := map[string]int{}
	var out []spanTotal
	durs := map[string][]float64{}
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, spanTotal{Name: s.Name})
		}
		out[j].N++
		out[j].TotalNs += s.dur()
		out[j].SelfNs += self[i]
		durs[s.Name] = append(durs[s.Name], float64(s.dur()))
	}
	for i := range out {
		out[i].MedianDurNs = median(durs[out[i].Name])
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfNs > out[b].SelfNs })
	return out
}

// chromeEvent is one record of the Chrome trace-event format, which
// chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat,omitempty"`
	Ph   string             `json:"ph"`
	Ts   float64            `json:"ts"` // microseconds
	Dur  *float64           `json:"dur,omitempty"`
	Pid  int                `json:"pid"`
	Tid  int32              `json:"tid"`
	ID   string             `json:"id,omitempty"`
	Args map[string]float64 `json:"args,omitempty"`
}

// writeChromeTrace writes spans as a trace-event array. Driver spans nest
// properly and become complete ("X") events; operation spans overlap
// within a lane, so they become async begin/end pairs keyed by span ID.
func writeChromeTrace(path string, spans []span, self []int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, "[\n")
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		return enc.Encode(ev)
	}
	for i, s := range spans {
		args := map[string]float64{"self_us": float64(self[i]) / 1e3, "span": float64(s.ID), "parent": float64(s.Parent)}
		if s.Op != 0 {
			args["op"] = float64(s.Op)
		}
		for _, c := range s.Counts {
			args[c.Name] = c.Value
		}
		ts := float64(s.Start) / 1e3
		if s.Op == 0 {
			d := float64(s.dur()) / 1e3
			err = emit(chromeEvent{Name: s.Name, Ph: "X", Ts: ts, Dur: &d, Pid: 1, Tid: s.Lane, Args: args})
		} else {
			id := fmt.Sprintf("0x%x", s.ID)
			if err = emit(chromeEvent{Name: s.Name, Cat: "op", Ph: "b", Ts: ts, Pid: 1, Tid: s.Lane, ID: id, Args: args}); err == nil {
				err = emit(chromeEvent{Name: s.Name, Cat: "op", Ph: "e", Ts: float64(s.End) / 1e3, Pid: 1, Tid: s.Lane, ID: id})
			}
		}
		if err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
