package gas

import (
	"fmt"
	"sync/atomic"
)

// Sequence issues globally unique block-number ranges. The real system
// coordinates this through the runtime's bootstrap network; because all
// simulated localities share one process we use a shared atomic counter.
// This is a documented simulation shortcut: block *numbering* is not part
// of what the paper evaluates (placement and translation are), and the
// counter is only touched on allocation, never on the data path.
//
// Block number 0 is never issued so that the null GVA stays invalid.
type Sequence struct {
	next atomic.Uint64
}

// NewSequence returns a sequence whose first issued block number is 1.
func NewSequence() *Sequence {
	s := &Sequence{}
	s.next.Store(1)
	return s
}

// Reserve claims n consecutive block numbers and returns the first. It
// returns an error if the 32-bit block-number space would be exhausted.
func (s *Sequence) Reserve(n uint32) (BlockID, error) {
	if n == 0 {
		return 0, fmt.Errorf("gas: reserve of zero blocks")
	}
	end := s.next.Add(uint64(n))
	start := end - uint64(n)
	if end > MaxBlock {
		return 0, fmt.Errorf("gas: block number space exhausted (want %d, at %d)", n, start)
	}
	return BlockID(start), nil
}
