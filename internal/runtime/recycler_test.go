package runtime

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// retained reads how many spares r holds in each list (messages, small
// and large buffers). The lists are the Recycler's own business, so the
// test reads their lengths by reflection rather than widen its API.
func retained(r *netsim.Recycler) [3]int {
	v := reflect.ValueOf(r).Elem()
	return [3]int{v.FieldByName("msgs").Len(), v.FieldByName("small").Len(), v.FieldByName("large").Len()}
}

// TestRecyclerRetentionAfterBurst: every rank but 0 fires a burst of
// parcels and one-sided puts (small and large payloads) at blocks on rank
// 0, a one-way flow of several times the lists' cap into one context.
// Afterwards each context — rank 0's above all — holds at most
// netsim.RecycleCap spares per list, read through World.claim (and, for
// a goroutine-engine mailbox's parked spares, under its lock), on the
// classic engine, the sharded one and the goroutine engine. Outside the
// msgpoison build, which keeps nothing, the DES engines' counts are
// pinned (held): every list full, but for the small
// and large buffers of the sharded engine's second and third shards. On
// the goroutine engine rank 0, which received everything, parks a full
// reserve of each list. Under -race the goroutine engine's run is also
// the check that each Recycler is touched only by its rank's token
// holder.
func TestRecyclerRetentionAfterBurst(t *testing.T) {
	const ranks, perRank = 6, 300
	full, half := [3]int{256, 256, 256}, [3]int{256, 128, 128}
	for _, tc := range []struct {
		name   string
		eng    EngineKind
		shards int
		held   [][3]int // by rank; nil: not pinned
	}{
		{"des", EngineDES, 0, [][3]int{full, full, full, full, full, full}},
		{"des-sharded", EngineDES, 3, [][3]int{full, full, half, half, half, half}},
		{"go", EngineGo, 0, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := testWorld(t, Config{Ranks: ranks, Mode: AGASNM, Engine: tc.eng, Shards: tc.shards})
			var ran, acked atomic.Int64
			count := w.Register("count", func(*Ctx) { ran.Add(1) })
			w.Start()
			lay, err := w.AllocLocal(0, 4096, 1)
			if err != nil {
				t.Fatal(err)
			}
			g := lay.BlockAt(0)
			small, large := make([]byte, 64), make([]byte, 2048)
			for r := 1; r < ranks; r++ {
				l := w.Locality(r)
				w.Proc(r).Run(func() {
					for i := 0; i < perRank; i++ {
						l.SendParcel(&parcel.Parcel{Action: count, Target: g, Payload: small})
						l.PutAsync(g, small, func() { acked.Add(1) })
						l.PutAsync(g, large, func() { acked.Add(1) })
					}
				})
			}
			const want = (ranks - 1) * perRank
			if !w.net.await(func() bool { return ran.Load() == want && acked.Load() == 2*want }, waitTimeout) {
				t.Fatalf("burst did not finish: %d parcels run, %d puts acked of %d", ran.Load(), acked.Load(), want)
			}
			for r := 0; r < ranks; r++ {
				l := w.Locality(r)
				var held [3]int
				w.claim(r, func() { held = retained(l.free) })
				lists := []string{"held"}
				if e, ok := l.exec.(*goExec); ok {
					e.mu.Lock()
					parked := retained(&e.spare)
					e.mu.Unlock()
					lists = append(lists, fmt.Sprint("parked ", parked))
					if r == 0 && !msgPoison && parked != full {
						t.Errorf("rank 0 parks %v spares, want %v", parked, full)
					}
					for i, n := range parked {
						if n > netsim.RecycleCap {
							t.Errorf("rank %d parks %d spares in list %d, cap %d", r, n, i, netsim.RecycleCap)
						}
					}
				}
				for i, n := range held {
					if n > netsim.RecycleCap {
						t.Errorf("rank %d holds %d spares in list %d, cap %d", r, n, i, netsim.RecycleCap)
					}
				}
				if tc.held != nil && !msgPoison && held != tc.held[r] {
					t.Errorf("rank %d holds %v spares, want %v", r, held, tc.held[r])
				}
				t.Logf("rank %d: held %v %v", r, held, lists[1:])
			}
		})
	}
}
