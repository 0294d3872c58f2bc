package stats

import (
	"math/rand"
	"testing"
)

// Fewer distinct keys than capacity: the sketch is exact, zero error.
func TestTopKExactUnderCapacity(t *testing.T) {
	tk := NewTopK(16)
	want := map[uint64]uint64{}
	for i := 0; i < 1000; i++ {
		key := uint64(i % 10)
		tk.Offer(key, 1)
		want[key]++
	}
	if tk.n != 1000 {
		t.Fatalf("N=%d want 1000", tk.n)
	}
	if tk.Len() != 10 {
		t.Fatalf("Len=%d want 10", tk.Len())
	}
	for _, it := range tk.Items() {
		if it.Err != 0 {
			t.Fatalf("key %d has err %d, want 0 (under capacity)", it.Key, it.Err)
		}
		if it.Count != want[it.Key] {
			t.Fatalf("key %d count %d want %d", it.Key, it.Count, want[it.Key])
		}
	}
}

// Space-saving guarantees on an overflowing stream: every entry's true
// count is within [Count-Err, Count], and any key with true frequency
// > N/K is tracked.
func TestTopKBoundsOverCapacity(t *testing.T) {
	const k = 8
	tk := NewTopK(k)
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.5, 1, 255)
	truth := map[uint64]uint64{}
	for i := 0; i < 20000; i++ {
		key := zipf.Uint64()
		tk.Offer(key, 1)
		truth[key]++
	}
	for _, it := range tk.Items() {
		lo := it.Count - it.Err
		if truth[it.Key] < lo || truth[it.Key] > it.Count {
			t.Fatalf("key %d: true %d outside [%d, %d]", it.Key, truth[it.Key], lo, it.Count)
		}
	}
	// Heavy-hitter completeness: anything hotter than N/K must be present.
	tracked := map[uint64]bool{}
	for _, it := range tk.Items() {
		tracked[it.Key] = true
	}
	threshold := tk.n / uint64(k)
	for key, n := range truth {
		if n > threshold && !tracked[key] {
			t.Fatalf("heavy hitter %d (count %d > N/K=%d) not tracked", key, n, threshold)
		}
	}
}

// Merging exact sketches yields exact sums — the property the policy
// engine relies on when folding per-rank sketches into a global view.
func TestTopKMergeExact(t *testing.T) {
	a, b := NewTopK(32), NewTopK(32)
	want := map[uint64]uint64{}
	for i := 0; i < 500; i++ {
		ka, kb := uint64(i%7), uint64(3+i%9)
		a.Offer(ka, 2)
		b.Offer(kb, 3)
		want[ka] += 2
		want[kb] += 3
	}
	a.Merge(b)
	if a.n != 500*2+500*3 {
		t.Fatalf("merged N=%d want %d", a.n, 500*2+500*3)
	}
	got := map[uint64]uint64{}
	for _, it := range a.Items() {
		if it.Err != 0 {
			t.Fatalf("exact merge produced err=%d for key %d", it.Err, it.Key)
		}
		got[it.Key] = it.Count
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("key %d: merged count %d want %d", k, got[k], n)
		}
	}
}

// Merge keeps the error-bound invariant even when both sides overflowed.
func TestTopKMergeBounds(t *testing.T) {
	const k = 8
	a, b := NewTopK(k), NewTopK(k)
	rng := rand.New(rand.NewSource(7))
	truth := map[uint64]uint64{}
	for i := 0; i < 10000; i++ {
		key := uint64(rng.Intn(64))
		if i%2 == 0 {
			a.Offer(key, 1)
		} else {
			b.Offer(key, 1)
		}
		truth[key]++
	}
	a.Merge(b)
	if a.Len() > k {
		t.Fatalf("merge grew past capacity: %d > %d", a.Len(), k)
	}
	if a.n != 10000 {
		t.Fatalf("merged N=%d want 10000", a.n)
	}
	for _, it := range a.Items() {
		if truth[it.Key] > it.Count {
			t.Fatalf("key %d: count %d underestimates true %d", it.Key, it.Count, truth[it.Key])
		}
	}
}

func TestTopKReset(t *testing.T) {
	tk := NewTopK(4)
	for i := 0; i < 100; i++ {
		tk.Offer(uint64(i), 1)
	}
	tk.Reset()
	if tk.n != 0 || tk.Len() != 0 {
		t.Fatalf("reset left N=%d Len=%d", tk.n, tk.Len())
	}
	tk.Offer(9, 5)
	items := tk.Items()
	if len(items) != 1 || items[0].Count != 5 || items[0].Err != 0 {
		t.Fatalf("post-reset offer wrong: %+v", items)
	}
}
