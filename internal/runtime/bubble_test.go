//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package runtime

import (
	"flag"
	"testing"
	"testing/synctest"
	"time"
)

// Goroutine-engine tests in virtual time. Inside a synctest bubble every
// clock, sleep and wall timer the world uses reads a fake clock that
// jumps ahead whenever all of the bubble's goroutines are blocked, so a
// run that sleeps through retransmission backoff costs microseconds and
// a 30 s Wait timeout returns at once. The file builds only under
// GOEXPERIMENT=synctest (Go 1.24; go.mod's language version needs the
// asynctimerchan setting above):
//
//	GOEXPERIMENT=synctest go test -run TestBubble ./internal/runtime/ -trials 1000
//
// A bubble makes time virtual, not scheduling deterministic: a failed
// trial cannot be replayed. Latency and heat tests read time.Since and
// stay outside.

var trials = flag.Int("trials", 100, "trials per mode for the bubble tests")

// inBubble runs f in a synctest bubble. A bubble returns only once all
// of its goroutines and timers have, so a timer chain that outlives
// World.Stop keeps it alive forever; a minute of wall time fails t.
func inBubble(t *testing.T, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		synctest.Run(f)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("bubble never returned: a timer outlived Stop")
	}
}

// TestBubbleNoTimerRunsAfterStop is TestNoTimerRunsAfterStop in virtual
// time: the bubble must return, and no timer may run after Stop.
func TestBubbleNoTimerRunsAfterStop(t *testing.T) {
	for i := 0; i < *trials; i++ {
		var err error
		inBubble(t, func() { err = stopWithTimersOut() })
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
}

// TestBubbleMembershipTrials runs the */go rows of
// TestKillPromotesReplicaAndServes and TestJoinReadmitsAndServes
// -trials times each and reports the failures per row. The known
// dead-owner flake (a dead rank's NACKs use up an op's bounces before
// the replica promotion lands) fails about one trial in a hundred; more
// than one in ten fails the row.
func TestBubbleMembershipTrials(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(*World) error
	}{
		{"KillPromotesReplicaAndServes", killPromotesReplicaAndServes},
		{"JoinReadmitsAndServes", joinReadmitsAndServes},
	} {
		for _, mode := range allModes {
			t.Run(tc.name+"/"+mode.String()+"/go", func(t *testing.T) {
				fails := 0
				for i := 0; i < *trials; i++ {
					var err error
					inBubble(t, func() {
						w, e := NewWorld(Config{Ranks: 4, Mode: mode, Engine: EngineGo, Reliability: relStress})
						if e != nil {
							err = e
							return
						}
						defer w.Stop()
						err = tc.body(w)
					})
					if err != nil {
						if fails++; fails == 1 {
							t.Logf("trial %d: %v", i, err)
						}
					}
				}
				t.Logf("%d failures in %d trials", fails, *trials)
				if 10*fails > *trials {
					t.Errorf("%d failures in %d trials", fails, *trials)
				}
			})
		}
	}
}
