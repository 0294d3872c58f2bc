package runtime

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// DumpState writes a human-readable snapshot of the world's protocol
// state: per-locality block residency, in-flight migrations with their
// queue depths, and outstanding one-sided operations. It is the first
// thing to reach for when a Wait deadlocks. Each locality is read in one
// claim of its rank (World.claim).
func (w *World) DumpState(out io.Writer) error {
	var sb strings.Builder // formatted whole, so out sees one write
	for _, l := range w.locs {
		type mv struct {
			b           uint32
			dst, queued int
		}
		var moves []mv
		var blocks, ops, dirs, tombs int
		w.claim(l.rank, func() {
			for b, st := range l.moving {
				moves = append(moves, mv{uint32(b), st.dst, len(st.queued)})
			}
			blocks, ops, dirs = l.store.Len(), l.ops.n, l.space.Directory().Len()
			if t := l.space.Tombstones(); t != nil {
				tombs = t.Len()
			}
		})
		sort.Slice(moves, func(i, j int) bool { return moves[i].b < moves[j].b })

		fmt.Fprintf(&sb, "locality %d: blocks=%d moving=%d ops_outstanding=%d\n",
			l.rank, blocks, len(moves), ops)
		for _, m := range moves {
			fmt.Fprintf(&sb, "  moving block %d -> rank %d (%d queued)\n", m.b, m.dst, m.queued)
		}
		if dirs > 0 {
			fmt.Fprintf(&sb, "  directory: %d away-from-home entries\n", dirs)
		}
		if tombs > 0 {
			fmt.Fprintf(&sb, "  tombstones: %d\n", tombs)
		}
	}
	w.net.dump(&sb)
	_, err := io.WriteString(out, sb.String())
	return err
}
