//go:build !race && !msgpoison

package runtime

import (
	"testing"

	"nmvgas/internal/parcel"
)

// TestRecycledPathsAllocateNothing pins the message path at zero
// allocations in steady state where each context recycles on its own: a
// DES put loop (a window of PutAsync into a block on another rank) on the
// classic engine and across two shards, whose barrier hands the one-way
// flow of payload buffers back, and a goroutine-engine parcel pump (rank
// 0 fires continuation-free parcels at rank 1, one-way in messages and
// buffers alike), where the sender tops up from the receiver's parked
// spares on each hand-off.
func TestRecycledPathsAllocateNothing(t *testing.T) {
	for _, shards := range []int{0, 2} {
		w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineDES, Shards: shards})
		w.Start()
		lay, err := w.AllocLocal(1, 4096, 1)
		if err != nil {
			t.Fatal(err)
		}
		g, l0, small, large := lay.BlockAt(0), w.Locality(0), make([]byte, 64), make([]byte, 1024)
		puts := func() {
			for i := 0; i < 16; i++ {
				l0.PutAsync(g, small, nil)
				l0.PutAsync(g, large, nil)
			}
		}
		loop := func() {
			w.Proc(0).Run(puts)
			w.Drain()
		}
		for i := 0; i < 64; i++ {
			loop()
		}
		if shards == 0 {
			// One goroutine runs the classic engine: count every allocation.
			if n := mallocsOver(200, loop); n > 0 {
				t.Errorf("DES put loop, classic engine: %v allocs in 200 loops of 32 puts, want 0", n)
			}
		} else if n := testing.AllocsPerRun(200, loop); n > 0 {
			t.Errorf("DES put loop, shards %d: %v allocs per 32 puts, want 0", shards, n)
		}
	}

	w := testWorld(t, Config{Ranks: 2, Mode: AGASNM, Engine: EngineGo})
	done := make(chan struct{}, 1)
	ran := 0
	count := w.Register("count", func(*Ctx) {
		if ran++; ran%16 == 0 {
			done <- struct{}{}
		}
	})
	w.Start()
	lay, err := w.AllocLocal(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, l0, payload := lay.BlockAt(0), w.Locality(0), make([]byte, 16)
	burst := func() {
		for i := 0; i < 16; i++ {
			l0.SendParcel(&parcel.Parcel{Action: count, Target: g, Payload: payload})
		}
	}
	pump := func() {
		w.Proc(0).Run(burst)
		<-done
	}
	for i := 0; i < 64; i++ {
		pump()
	}
	if n := testing.AllocsPerRun(500, pump); n > 0 {
		t.Errorf("goroutine-engine parcel pump: %v allocs per 16 parcels, want 0", n)
	}
}
