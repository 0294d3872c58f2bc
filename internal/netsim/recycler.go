package netsim

import "nmvgas/internal/gas"

// Recycler is one execution context's spare messages and wire buffers:
// LIFO lists touched only by the goroutine running that context (a DES
// engine face, a goroutine-engine rank's token holder), so they take no
// atomic and no lock. What another context handed out joins the lists of
// the context that releases it. Each list holds at most RecycleCap; a
// pop from an empty one counts in Dried and runs Dry, if set, before it
// falls back to the heap. Give trades spares between contexts. A nil
// *Recycler is the heap.
//
// Under -tags msgpoison (poison_on.go) Release scribbles the message and
// PutBuf fills the buffer with 0xEE, and neither keeps it: a touch after
// release reads garbage the protocol's own checks trip over, nothing
// released is handed out again, and a second Release panics — the
// single-owner rule made executable.
type Recycler struct {
	msgs  []*Message
	small []*[BufSmall]byte
	large []*[BufLarge]byte
	// Dry refills the lists from the owner's reserve (a goroutine-engine
	// rank takes back what its mailbox parked); Dried counts the pops
	// that found a list empty since the owner last reset it.
	Dry   func()
	Dried int
}

// The wire-buffer classes: a payload of up to BufSmall bytes takes a
// small buffer, up to BufLarge a large one, anything larger the heap.
// RecycleKeep is what a goroutine-engine rank keeps between turns.
const (
	BufSmall    = 256
	BufLarge    = 4096
	RecycleCap  = 256
	RecycleKeep = 32
)

// Message returns a zeroed message.
func (r *Recycler) Message() *Message {
	if r == nil {
		return new(Message)
	}
	if len(r.msgs) == 0 {
		r.dry()
	}
	return pop(&r.msgs)
}

// Buf returns a zero-length buffer of capacity at least n, and whether it
// is a class's (the terminal consumer hands those to PutBuf). The lists
// keep array pointers: a slice header would cost an allocation to keep.
func (r *Recycler) Buf(n int) ([]byte, bool) {
	switch {
	case r == nil || n > BufLarge:
		return make([]byte, 0, n), false
	case n <= BufSmall:
		if len(r.small) == 0 {
			r.dry()
		}
		return pop(&r.small)[:0], true
	}
	if len(r.large) == 0 {
		r.dry()
	}
	return pop(&r.large)[:0], true
}

// dry runs before a pop from an empty list: Dry may refill it.
func (r *Recycler) dry() {
	r.Dried++
	if r.Dry != nil {
		r.Dry()
	}
}

// Release zeroes m and keeps it for this context's next Message; the
// caller must not touch m again. Zeroing drops the Payload/Nacked
// pointers but not their referents, so slices aliased out of the payload
// stay valid. Any message may be released, whoever made it.
func (r *Recycler) Release(m *Message) {
	switch {
	case !msgPoison:
		*m = Message{}
		if r != nil {
			push(&r.msgs, m)
		}
	case m.Kind == 0xEE && m.Ctl == 0xEE:
		panic("netsim: Message released twice")
	default:
		*m = Message{Kind: 0xEE, Ctl: 0xEE, Src: -1 << 40, Dst: -1 << 40, Owner: -1 << 40,
			Target: ^gas.GVA(0), Block: ^gas.BlockID(0), Wire: -1, Hops: 1 << 40,
			OpID: ^uint64(0), RelSeq: ^uint64(0)}
	}
}

// PutBuf keeps a buffer Buf marked as a class's, still starting at its
// array's first byte.
func (r *Recycler) PutBuf(b []byte) {
	switch {
	case msgPoison:
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xEE
		}
	case cap(b) == BufSmall:
		push(&r.small, (*[BufSmall]byte)(b[:BufSmall]))
	default:
		push(&r.large, (*[BufLarge]byte)(b[:BufLarge]))
	}
}

func pop[T any](l *[]*T) *T {
	if n := len(*l) - 1; n >= 0 {
		x := (*l)[n]
		(*l)[n], *l = nil, (*l)[:n]
		return x
	}
	return new(T)
}

func push[T any](l *[]*T, x *T) {
	if len(*l) < RecycleCap {
		*l = append(*l, x)
	}
}

// Give moves spares from r to o, list by list, while r holds more than
// keep and o fewer than upTo. The caller owns both: a sharded engine's
// barrier, or a goroutine-engine mailbox's lock (executor.go).
func (r *Recycler) Give(o *Recycler, keep, upTo int) {
	give(&r.msgs, &o.msgs, keep, upTo)
	give(&r.small, &o.small, keep, upTo)
	give(&r.large, &o.large, keep, upTo)
}

func give[T any](from, to *[]*T, keep, upTo int) {
	for len(*from) > keep && len(*to) < upTo {
		n := len(*from) - 1
		*to = append(*to, (*from)[n])
		(*from)[n], *from = nil, (*from)[:n]
	}
}
