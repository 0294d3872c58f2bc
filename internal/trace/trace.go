// Package trace provides a bounded, concurrency-safe collector for the
// runtime's protocol trace events, with filtering and Chrome trace-event
// dumping. It is the debugging companion a production runtime ships
// with: attach it to a world, run the workload, and read back exactly
// which parcels executed where, what was forwarded or NACKed, and how
// each migration progressed — or load the Chrome export into Perfetto
// and see every operation's journey as a span.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"nmvgas/internal/runtime"
)

// seqEvent pairs a recorded event with its global arrival sequence, so
// per-shard buffers merge back into one arrival-ordered stream.
type seqEvent struct {
	seq uint64
	ev  runtime.TraceEvent
}

// ringShard is one independently locked slice of the flight recorder.
type ringShard struct {
	mu   sync.Mutex
	buf  []seqEvent
	next int
}

func (s *ringShard) record(e seqEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, e)
		return
	}
	s.buf[s.next] = e
	s.next = (s.next + 1) % cap(s.buf)
}

func (s *ringShard) snapshot(out []seqEvent) []seqEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) < cap(s.buf) {
		return append(out, s.buf...)
	}
	out = append(out, s.buf[s.next:]...)
	return append(out, s.buf[:s.next]...)
}

// Ring is a fixed-capacity event buffer; once full, new events overwrite
// the oldest (the usual flight-recorder discipline). Internally the
// buffer may be sharded per rank (see AttachSharded) so the goroutine
// engine's concurrent localities do not serialize on one mutex; a
// sharded ring's retention is per shard, so a rank-imbalanced workload
// retains slightly different tails than a single ring would.
type Ring struct {
	shards []ringShard
	seq    atomic.Uint64 // global arrival order
	total  atomic.Uint64
}

func newRing(capacity, shards int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	per := (capacity + shards - 1) / shards
	r := &Ring{shards: make([]ringShard, shards)}
	for i := range r.shards {
		r.shards[i].buf = make([]seqEvent, 0, per)
	}
	return r
}

// Attach installs a ring sharded per rank as w's tracer, so concurrent
// localities record without contending on one lock. Must run before
// w.Start.
func Attach(w *runtime.World, capacity int) *Ring {
	r := newRing(capacity, w.Ranks())
	w.SetTracer(r.Record)
	return r
}

// Record appends one event (the runtime calls this).
func (r *Ring) Record(ev runtime.TraceEvent) {
	r.total.Add(1)
	e := seqEvent{seq: r.seq.Add(1), ev: ev}
	sh := 0
	if n := len(r.shards); n > 1 {
		if sh = ev.Rank % n; sh < 0 {
			sh = 0
		}
	}
	r.shards[sh].record(e)
}

// Total returns how many events were observed (including overwritten
// ones).
func (r *Ring) Total() uint64 { return r.total.Load() }

// Events returns the retained events in arrival order.
func (r *Ring) Events() []runtime.TraceEvent {
	es := r.merged()
	out := make([]runtime.TraceEvent, len(es))
	for i, e := range es {
		out[i] = e.ev
	}
	return out
}

func (r *Ring) merged() []seqEvent {
	var es []seqEvent
	for i := range r.shards {
		es = r.shards[i].snapshot(es)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].seq < es[j].seq })
	return es
}

// Filter returns retained events matching the predicate.
func (r *Ring) Filter(pred func(runtime.TraceEvent) bool) []runtime.TraceEvent {
	var out []runtime.TraceEvent
	for _, ev := range r.Events() {
		if pred(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// CountKind returns how many retained events have the given kind.
func (r *Ring) CountKind(k runtime.TraceKind) int {
	return len(r.Filter(func(ev runtime.TraceEvent) bool { return ev.Kind == k }))
}

// chromeEvent is one record in the Chrome trace-event JSON format
// (loadable in Perfetto / chrome://tracing).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// DumpChrome writes the retained events as Chrome trace-event JSON.
// Every operation's journey becomes one async span keyed by OpID:
// TraceSend opens it ("b"), the final TraceExec closes it ("e"), and
// protocol steps in between (forwards, NACKs, queueing, retransmits)
// are async instants ("n") on the same id. Events with no OpID render
// as thread-scoped instants. Timestamps are the runtime's trace clock
// (simulated ns under DES, wall ns under the goroutine engine)
// converted to microseconds.
func (r *Ring) DumpChrome(w io.Writer) error {
	es := r.merged()
	evs := make([]chromeEvent, 0, len(es)+1)
	evs = append(evs, chromeEvent{
		Name: "process_name", Phase: "M", PID: 0, TID: 0,
		Args: map[string]any{"name": "nmvgas"},
	})
	for _, e := range es {
		ev := e.ev
		ce := chromeEvent{
			Name: ev.Kind.String(),
			TS:   float64(ev.Time) / 1e3,
			PID:  0,
			TID:  ev.Rank,
			Args: map[string]any{
				"block": uint64(ev.Block),
				"info":  ev.Info,
				"seq":   e.seq,
			},
		}
		if ev.OpID != 0 {
			ce.Cat = "op"
			ce.ID = fmt.Sprintf("%#x", ev.OpID)
			switch ev.Span {
			case runtime.SpanBegin:
				ce.Phase = "b"
			case runtime.SpanEnd:
				ce.Phase = "e"
			default:
				ce.Phase = "n"
			}
		} else {
			ce.Phase = "i"
			ce.Scope = "t"
		}
		evs = append(evs, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ns",
	})
}
