package runtime

import (
	"fmt"

	"nmvgas/internal/parcel"
)

// Action is the handler type executed when a parcel arrives at the
// locality owning its target. Actions must not block: they communicate
// results through ctx.Continue and LCO continuations, which is what lets
// identical protocol code run on the discrete-event and goroutine engines.
type Action func(c *Ctx)

// Builtin action identifiers. User registration starts after these; the
// runtime registers them in a fixed order so IDs are stable.
const (
	aNil parcel.ActionID = iota // parcel.NilAction
	// ALCOSet delivers a payload into the LCO block it targets.
	ALCOSet
	// ANop does nothing; barriers and wiring tests use it.
	ANop
	aMigrateReq
	aMigrateData
	aMigrateCommit
	aMigrateDone
	aAllocBlocks
	aFreeBlock
	firstUserAction
)

// Registry maps action identifiers to handlers. Registration must finish
// before traffic flows and, in a distributed deployment, must happen in
// identical order everywhere; in this in-process reproduction one registry
// is shared by all localities, which enforces that by construction.
type Registry struct {
	actions []Action
	byName  map[string]parcel.ActionID
	sealed  bool
}

func newRegistry() *Registry {
	r := &Registry{byName: make(map[string]parcel.ActionID)}
	// Slot 0 is the nil action.
	r.actions = append(r.actions, nil)
	return r
}

// Register adds an action under a unique name and returns its ID. It
// panics on duplicate names or post-seal registration: both are build
// bugs, not runtime conditions.
func (r *Registry) Register(name string, a Action) parcel.ActionID {
	if r.sealed {
		panic(fmt.Sprintf("runtime: Register(%q) after world start", name))
	}
	if a == nil {
		panic(fmt.Sprintf("runtime: Register(%q) with nil action", name))
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("runtime: duplicate action name %q", name))
	}
	id := parcel.ActionID(len(r.actions))
	r.actions = append(r.actions, a)
	r.byName[name] = id
	return id
}

// Lookup returns the handler for id.
func (r *Registry) Lookup(id parcel.ActionID) (Action, error) {
	if int(id) >= len(r.actions) || r.actions[id] == nil {
		return nil, fmt.Errorf("runtime: unknown action id %d", id)
	}
	return r.actions[id], nil
}

func (r *Registry) seal() { r.sealed = true }
