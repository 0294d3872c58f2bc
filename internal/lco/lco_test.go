package lco

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestFutureFiresOnce(t *testing.T) {
	f := NewFuture()
	if f.Ready() {
		t.Fatal("new future ready")
	}
	var got []byte
	f.OnFire(func(d []byte) { got = d })
	if err := f.Set([]byte{42}); err != nil {
		t.Fatal(err)
	}
	if !f.Ready() || got == nil || got[0] != 42 {
		t.Fatalf("ready=%v got=%v", f.Ready(), got)
	}
	if err := f.Set([]byte{1}); !errors.Is(err, ErrAlreadySet) {
		t.Fatalf("double set err = %v", err)
	}
	if f.Value()[0] != 42 {
		t.Fatal("value changed by failed double set")
	}
}

func TestFutureLateTriggerRunsImmediately(t *testing.T) {
	f := NewFuture()
	if err := f.Set([]byte{7}); err != nil {
		t.Fatal(err)
	}
	ran := false
	f.OnFire(func(d []byte) { ran = d[0] == 7 })
	if !ran {
		t.Fatal("late OnFire did not run immediately")
	}
}

func TestFutureMultipleTriggers(t *testing.T) {
	f := NewFuture()
	var n int
	for i := 0; i < 5; i++ {
		f.OnFire(func([]byte) { n++ })
	}
	if err := f.Set(nil); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("ran %d triggers", n)
	}
}

func TestAndGateCounts(t *testing.T) {
	g := NewAndGate(3)
	fired := false
	g.OnFire(func([]byte) { fired = true })
	for i := 0; i < 2; i++ {
		if err := g.Set(nil); err != nil {
			t.Fatal(err)
		}
		if fired {
			t.Fatalf("fired after %d contributions", i+1)
		}
	}
	if err := g.Set(nil); err != nil {
		t.Fatal(err)
	}
	if !fired || !g.Ready() {
		t.Fatal("gate did not fire on final contribution")
	}
	if err := g.Set(nil); !errors.Is(err, ErrOverflow) {
		t.Fatalf("overflow err = %v", err)
	}
}

func TestAndGateZeroFiresImmediately(t *testing.T) {
	g := NewAndGate(0)
	if !g.Ready() {
		t.Fatal("zero gate not ready")
	}
	ran := false
	g.OnFire(func([]byte) { ran = true })
	if !ran {
		t.Fatal("trigger on fired gate did not run")
	}
}

func TestAndGateConcurrentContributions(t *testing.T) {
	const n = 100
	g := NewAndGate(n)
	var fired atomic.Int32
	g.OnFire(func([]byte) { fired.Add(1) })
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Set(nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if fired.Load() != 1 {
		t.Fatalf("fired %d times", fired.Load())
	}
}

func TestReduceSum(t *testing.T) {
	r := NewReduce(4, SumI64)
	var got int64
	r.OnFire(func(d []byte) { got = DecodeI64(d) })
	for _, v := range []int64{1, -2, 30, 400} {
		if err := r.Set(EncodeI64(v)); err != nil {
			t.Fatal(err)
		}
	}
	if got != 429 {
		t.Fatalf("sum = %d", got)
	}
	if err := r.Set(EncodeI64(1)); !errors.Is(err, ErrOverflow) {
		t.Fatalf("overflow err = %v", err)
	}
}

func TestReduceMinMax(t *testing.T) {
	rmin := NewReduce(3, MinI64)
	rmax := NewReduce(3, MaxI64)
	for _, v := range []int64{5, -7, 3} {
		if err := rmin.Set(EncodeI64(v)); err != nil {
			t.Fatal(err)
		}
		if err := rmax.Set(EncodeI64(v)); err != nil {
			t.Fatal(err)
		}
	}
	if DecodeI64(rmin.Value()) != -7 {
		t.Fatalf("min = %d", DecodeI64(rmin.Value()))
	}
	if DecodeI64(rmax.Value()) != 5 {
		t.Fatalf("max = %d", DecodeI64(rmax.Value()))
	}
}

func TestReduceSumPropertyOrderInvariant(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		r := NewReduce(len(vals), SumI64)
		var want int64
		for _, v := range vals {
			want += v
			if err := r.Set(EncodeI64(v)); err != nil {
				return false
			}
		}
		return DecodeI64(r.Value()) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestI64EncodingRoundTrip(t *testing.T) {
	f := func(v int64) bool { return DecodeI64(EncodeI64(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
