//go:build msgpoison

package netsim

import "nmvgas/internal/gas"

// Test builds only (-tags msgpoison): Release scribbles the struct and
// never recycles it, so a touch after Release reads garbage the protocol's
// own checks trip over (unknown kind, bad rank), and a second Release
// panics — the single-owner rule made executable.
func (m *Message) release() {
	const poison = 0xEE
	if m.Kind == poison && m.Ctl == poison {
		panic("netsim: Message released twice")
	}
	*m = Message{
		Kind: poison, Ctl: poison, Src: -1 << 40, Dst: -1 << 40, Owner: -1 << 40,
		Target: ^gas.GVA(0), Block: ^gas.BlockID(0), Wire: -1, Hops: 1 << 40,
		OpID: ^uint64(0), RelSeq: ^uint64(0),
	}
}
