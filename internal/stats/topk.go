package stats

// TopK is a space-saving heavy-hitters sketch over uint64 keys (Metwally,
// Agrawal, El Abbadi: "Efficient computation of frequent and top-k
// elements in data streams"). It keeps at most K (key, count, err)
// entries: when a new key arrives while the sketch is full, it evicts the
// minimum-count entry and inherits its count as the new entry's error
// bound. The classic guarantees follow: every key whose true frequency
// exceeds N/K is present, each entry's true count lies in
// [count-err, count], and count-err is a guaranteed lower bound.
//
// Memory is fixed at construction — the internal map never exceeds K
// entries — which is what lets the runtime keep one sketch per rank on
// the data path without unbounded growth under adversarial key streams.
type TopK struct {
	k     int
	slots []TopKItem
	idx   map[uint64]int // key -> position in slots
	n     uint64         // total weight offered
}

// TopKItem is one sketch entry. Count overestimates the true frequency by
// at most Err; Count-Err is a guaranteed lower bound.
type TopKItem struct {
	Key   uint64
	Count uint64
	Err   uint64
}

// NewTopK returns a sketch tracking up to k keys. k must be > 0.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("stats: TopK capacity must be > 0")
	}
	return &TopK{
		k:     k,
		slots: make([]TopKItem, 0, k),
		idx:   make(map[uint64]int, k),
	}
}

// Offer records `inc` occurrences of key.
func (t *TopK) Offer(key uint64, inc uint64) {
	if inc == 0 {
		return
	}
	t.n += inc
	if i, ok := t.idx[key]; ok {
		t.slots[i].Count += inc
		return
	}
	if len(t.slots) < t.k {
		t.idx[key] = len(t.slots)
		t.slots = append(t.slots, TopKItem{Key: key, Count: inc})
		return
	}
	// Evict the minimum-count entry; the newcomer inherits its count as
	// the error bound (it may have occurred up to that many times while
	// untracked).
	min := 0
	for i := 1; i < len(t.slots); i++ {
		if t.slots[i].Count < t.slots[min].Count {
			min = i
		}
	}
	old := t.slots[min]
	delete(t.idx, old.Key)
	t.idx[key] = min
	t.slots[min] = TopKItem{Key: key, Count: old.Count + inc, Err: old.Count}
}

// Len returns the number of tracked entries (≤ K).
func (t *TopK) Len() int { return len(t.slots) }

// Items returns a copy of the tracked entries in unspecified order.
func (t *TopK) Items() []TopKItem {
	out := make([]TopKItem, len(t.slots))
	copy(out, t.slots)
	return out
}

// Merge folds another sketch into this one. Counts for shared keys add;
// error bounds add too (both sides' overestimates compound). If both
// inputs were exact (never evicted), the merge is exact as well.
func (t *TopK) Merge(o *TopK) {
	for _, it := range o.slots {
		t.n += it.Count
		if i, ok := t.idx[it.Key]; ok {
			t.slots[i].Count += it.Count
			t.slots[i].Err += it.Err
			continue
		}
		if len(t.slots) < t.k {
			t.idx[it.Key] = len(t.slots)
			t.slots = append(t.slots, it)
			continue
		}
		min := 0
		for i := 1; i < len(t.slots); i++ {
			if t.slots[i].Count < t.slots[min].Count {
				min = i
			}
		}
		if t.slots[min].Count >= it.Count {
			// The incoming entry is no hotter than anything tracked:
			// absorb its weight into the victim's error budget instead
			// of churning slots.
			t.slots[min].Count += it.Count
			t.slots[min].Err += it.Count
			continue
		}
		old := t.slots[min]
		delete(t.idx, old.Key)
		t.idx[it.Key] = min
		t.slots[min] = TopKItem{Key: it.Key, Count: old.Count + it.Count, Err: old.Count + it.Err}
	}
}

// Reset clears the sketch for the next epoch, keeping capacity.
func (t *TopK) Reset() {
	t.slots = t.slots[:0]
	for k := range t.idx {
		delete(t.idx, k)
	}
	t.n = 0
}
