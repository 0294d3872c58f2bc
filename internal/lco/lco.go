// Package lco implements local control objects: the synchronization
// primitives of the message-driven runtime. An LCO accumulates inputs
// (Set calls, usually delivered by parcels) and, once its firing condition
// holds, invokes every registered trigger exactly once with the final
// value. Actions never block on an LCO — they register continuations —
// so the same LCO code runs on the deterministic discrete-event engine
// and on the concurrent goroutine engine.
package lco

import (
	"errors"
	"sync"
)

// Trigger is a continuation invoked when an LCO fires. The data slice
// must not be mutated by the trigger.
type Trigger func(data []byte)

// ErrAlreadySet reports a second Set on a single-assignment LCO.
var ErrAlreadySet = errors.New("lco: already set")

// ErrOverflow reports more contributions than an LCO was created for.
var ErrOverflow = errors.New("lco: contribution overflow")

// LCO is the common interface of all control objects.
type LCO interface {
	// Set contributes data. Depending on the LCO type this may or may
	// not fire it.
	Set(data []byte) error
	// Ready reports whether the LCO has fired.
	Ready() bool
	// Value returns the fired value; it is only meaningful when Ready.
	Value() []byte
	// OnFire registers a trigger, invoking it immediately if the LCO has
	// already fired.
	OnFire(Trigger)
}

// base carries the shared fired/value/trigger machinery. Concrete LCOs
// embed it and call fire under their own mutex discipline.
type base struct {
	mu       sync.Mutex
	fired    bool
	value    []byte
	triggers []Trigger
}

// fire marks the LCO fired and returns the triggers to run; the caller
// invokes them outside the lock so triggers may re-enter LCO code.
func (b *base) fire(v []byte) []Trigger {
	b.fired = true
	b.value = v
	ts := b.triggers
	b.triggers = nil
	return ts
}

func runAll(ts []Trigger, v []byte) {
	for _, t := range ts {
		t(v)
	}
}

func (b *base) Ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fired
}

func (b *base) Value() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.value
}

func (b *base) OnFire(t Trigger) {
	b.mu.Lock()
	if b.fired {
		v := b.value
		b.mu.Unlock()
		t(v)
		return
	}
	b.triggers = append(b.triggers, t)
	b.mu.Unlock()
}

// Future is a single-assignment LCO: the first Set fires it; further Sets
// fail with ErrAlreadySet.
type Future struct {
	base
}

// NewFuture returns an unset future.
func NewFuture() *Future { return &Future{} }

// Set fires the future with data.
func (f *Future) Set(data []byte) error {
	f.mu.Lock()
	if f.fired {
		f.mu.Unlock()
		return ErrAlreadySet
	}
	ts := f.fire(data)
	f.mu.Unlock()
	runAll(ts, data)
	return nil
}

// AndGate fires with a nil value after exactly n contributions.
type AndGate struct {
	base
	need int
}

// NewAndGate returns a gate requiring n contributions; n == 0 fires
// immediately.
func NewAndGate(n int) *AndGate {
	g := &AndGate{need: n}
	if n == 0 {
		g.fired = true
	}
	return g
}

// Set consumes one contribution; the data is ignored (use Reduce to
// combine values).
func (g *AndGate) Set(data []byte) error {
	g.mu.Lock()
	if g.need == 0 {
		g.mu.Unlock()
		return ErrOverflow
	}
	g.need--
	if g.need > 0 {
		g.mu.Unlock()
		return nil
	}
	ts := g.fire(nil)
	g.mu.Unlock()
	runAll(ts, nil)
	return nil
}
