// Package parcel implements the active messages of the message-driven
// runtime. A parcel carries an action identifier, the global address the
// action runs on, an opaque payload, and an optional continuation: a
// second (action, address) pair that receives the action's result. This is
// the HPX-5 parcel model; continuations are how the runtime composes
// asynchronous work without ever blocking inside a handler.
package parcel

import (
	"fmt"

	"nmvgas/internal/gas"
)

// ActionID names a registered action. IDs are assigned by registration
// order, which the runtime requires to be identical on every locality.
type ActionID uint16

// NilAction is the absent action (no continuation).
const NilAction ActionID = 0

// Parcel is one active message.
type Parcel struct {
	// Action is the handler to run at the target.
	Action ActionID
	// Target is the global address the action is addressed to; the
	// parcel is delivered to the locality that currently owns it.
	Target gas.GVA
	// Payload is the action's argument record.
	Payload []byte

	// CAction/CTarget form the continuation: when the action returns a
	// result, the runtime sends Continue(result) as a new parcel running
	// CAction at CTarget (most often an LCO set).
	CAction ActionID
	CTarget gas.GVA

	// Src is the originating locality, stamped at send time.
	Src int
	// Seq is a per-source sequence number for tracing and tests.
	Seq uint64
	// OpID is the world-unique causal span id, stamped at send time and
	// preserved across NACK repairs, reliability resends, and in-NIC
	// forwards so every hop of one logical operation shares one id.
	OpID uint64
}

// WireSize returns the encoded size in bytes.
func (p *Parcel) WireSize() int { return headerSize + len(p.Payload) }

func (p *Parcel) String() string {
	return fmt.Sprintf("parcel(act=%d tgt=%v len=%d cont=%d@%v src=%d seq=%d)",
		p.Action, p.Target, len(p.Payload), p.CAction, p.CTarget, p.Src, p.Seq)
}
