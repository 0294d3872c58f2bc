package agas

import (
	"sync"
	"testing"
	"testing/quick"

	"nmvgas/internal/gas"
)

func TestDirectoryDefaultsToHome(t *testing.T) {
	d := NewDirectory()
	if _, ok := d.Owner(5); ok {
		t.Fatal("empty directory claims an entry")
	}
	if got := d.Resolve(5, 3); got != 3 {
		t.Fatalf("Resolve = %d, want home 3", got)
	}
}

func TestDirectorySetResolveDrop(t *testing.T) {
	d := NewDirectory()
	d.Set(5, 7, 3)
	if got := d.Resolve(5, 3); got != 7 {
		t.Fatalf("Resolve after Set = %d", got)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
	// Returning home removes the entry.
	d.Set(5, 3, 3)
	if d.Len() != 0 {
		t.Fatal("home-owner entry retained")
	}
	d.Set(6, 1, 0)
	d.Drop(6)
	if d.Len() != 0 {
		t.Fatal("Drop left an entry")
	}
}

// The tables take no lock: a rank's table is written by whichever
// goroutine holds the rank's token, one at a time. The concurrent tests
// hand one token between goroutines the same way (token below), so under
// -race they report any state a table shares beyond its owner.
func TestDirectoryConcurrent(t *testing.T) {
	d := NewDirectory()
	var wg sync.WaitGroup
	var token sync.Mutex
	for w := 1; w <= 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				token.Lock()
				d.Set(gas.BlockID(i), w, 0)
				d.Resolve(gas.BlockID(i), 0)
				token.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if d.Len() != 200 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestDirectoryResolveMatchesSetProperty(t *testing.T) {
	d := NewDirectory()
	f := func(block uint32, owner, home uint8) bool {
		b := gas.BlockID(block)
		d.Set(b, int(owner), int(home))
		got := d.Resolve(b, int(home))
		return got == int(owner)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSWCacheLearnAndLookup(t *testing.T) {
	c := NewSWCache(0, CorrectionUpdate)
	if _, ok := c.Lookup(1); ok {
		t.Fatal("empty cache hit")
	}
	c.Learn(1, 4)
	if o, ok := c.Lookup(1); !ok || o != 4 {
		t.Fatalf("Lookup = %d,%v", o, ok)
	}
	h, m, _, up, _ := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats h=%d m=%d", h, m)
	}
	if up != 1 {
		t.Fatalf("updates = %d (Learn must surface as a table update)", up)
	}
}

func TestSWCacheCorrectionUpdate(t *testing.T) {
	c := NewSWCache(0, CorrectionUpdate)
	c.Learn(1, 4)
	c.Correct(1, 6)
	if o, ok := c.Lookup(1); !ok || o != 6 {
		t.Fatalf("after correction Lookup = %d,%v", o, ok)
	}
	_, _, _, _, corr := c.Stats()
	if corr != 1 {
		t.Fatalf("corrections = %d", corr)
	}
}

func TestSWCacheCorrectionInvalidate(t *testing.T) {
	c := NewSWCache(0, CorrectionInvalidate)
	c.Learn(1, 4)
	c.Correct(1, 6)
	if _, ok := c.Lookup(1); ok {
		t.Fatal("invalidate policy retained the entry")
	}
}

func TestSWCacheBoundedCapacity(t *testing.T) {
	c := NewSWCache(4, CorrectionUpdate)
	for i := 0; i < 100; i++ {
		c.Learn(gas.BlockID(i), i%3)
	}
	if c.Len() > 4 {
		t.Fatalf("cache grew to %d entries", c.Len())
	}
}

func TestSWCacheConcurrent(t *testing.T) {
	c := NewSWCache(64, CorrectionUpdate)
	var wg sync.WaitGroup
	var token sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				token.Lock()
				c.Learn(gas.BlockID(i%128), w)
				c.Lookup(gas.BlockID(i % 128))
				if i%17 == 0 {
					c.Correct(gas.BlockID(i%128), w)
				}
				token.Unlock()
			}
		}(w)
	}
	wg.Wait()
}

func TestTombstones(t *testing.T) {
	ts := NewTombstones()
	if _, ok := ts.Get(1); ok {
		t.Fatal("empty tombstones hit")
	}
	ts.Put(1, 5)
	if o, ok := ts.Get(1); !ok || o != 5 {
		t.Fatalf("Get = %d,%v", o, ok)
	}
	ts.Put(1, 6) // re-migration overwrites
	if o, _ := ts.Get(1); o != 6 {
		t.Fatalf("overwrite failed, got %d", o)
	}
	if ts.Len() != 1 {
		t.Fatalf("Len = %d", ts.Len())
	}
	ts.Drop(1)
	if _, ok := ts.Get(1); ok {
		t.Fatal("entry survived Drop")
	}
}

func TestTombstonesConcurrent(t *testing.T) {
	ts := NewTombstones()
	var wg sync.WaitGroup
	var token sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				token.Lock()
				ts.Put(gas.BlockID(i), w)
				ts.Get(gas.BlockID(i))
				token.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if ts.Len() != 300 {
		t.Fatalf("Len = %d", ts.Len())
	}
}
