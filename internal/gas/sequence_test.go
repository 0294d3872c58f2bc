package gas

import (
	"sync"
	"testing"
)

func TestSequenceReserve(t *testing.T) {
	s := NewSequence()
	a, err := s.Reserve(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Reserve(2)
	if err != nil {
		t.Fatal(err)
	}
	if a != 1 {
		t.Fatalf("first reservation = %d, want 1 (0 is reserved for null)", a)
	}
	if b != 5 {
		t.Fatalf("second reservation = %d, want 5", b)
	}
	if issued := s.next.Load() - 1; issued != 6 {
		t.Fatalf("issued %d block numbers, want 6", issued)
	}
}

func TestSequenceZeroReserve(t *testing.T) {
	s := NewSequence()
	if _, err := s.Reserve(0); err == nil {
		t.Fatal("Reserve(0) accepted")
	}
}

func TestSequenceExhaustion(t *testing.T) {
	s := NewSequence()
	if _, err := s.Reserve(MaxBlock - 1); err != nil {
		t.Fatalf("reserving the full space failed: %v", err)
	}
	if _, err := s.Reserve(1); err == nil {
		t.Fatal("reservation beyond the block space accepted")
	}
}

func TestSequenceConcurrentUnique(t *testing.T) {
	s := NewSequence()
	const workers, per = 8, 100
	got := make([][]BlockID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id, err := s.Reserve(3)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], id)
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[BlockID]bool)
	for _, ids := range got {
		for _, id := range ids {
			for k := BlockID(0); k < 3; k++ {
				if seen[id+k] {
					t.Fatalf("block %d issued twice", id+k)
				}
				seen[id+k] = true
			}
		}
	}
	if len(seen) != workers*per*3 {
		t.Fatalf("issued %d unique ids, want %d", len(seen), workers*per*3)
	}
}
