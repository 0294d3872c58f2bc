//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package runtime

import (
	"errors"
	"flag"
	"fmt"
	"strings"
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
//
// The flake gate. A change that speeds up the goroutine engine may not
// make the membership rows fail more often than its parent does. Both
// trees are copied side by side and run in alternation, parent first:
//
//   - in bubbles, 20 runs per commit of
//     GOEXPERIMENT=synctest go test -count=1 -run TestBubbleMembershipTrials ./internal/runtime/ -trials 1000
//     each scored by its summed failures over the six rows;
//   - on the wall clock, 100 runs per commit of
//     go test -count=1 -run 'TestKillPromotesReplicaAndServes|TestJoinReadmitsAndServes' ./internal/runtime/
//     each scored pass or fail.
//
// Run i of the change is paired with run i of the parent. In each half a
// one-sided sign test drops the tied pairs and asks how likely at least
// as many pairs worse for the change would be if worse and better were
// equally likely; the change fails the gate if that is below 0.05 in
// either half. The counts per commit and both p values are reported,
// whether the gate is met or not.

var trials = flag.Int("trials", 100, "trials per mode for the bubble tests")

// inBubble runs f in a synctest bubble and returns its error. A bubble
// returns only once all of its goroutines and timers have, so a timer
// chain that outlives World.Stop keeps it alive forever; a minute of wall
// time fails t. The error travels on a channel: the race detector does
// not see synctest.Run's return as ordering a write made in the bubble
// before a read made after it.
func inBubble(t *testing.T, f func() error) error {
	t.Helper()
	res, done := make(chan error, 1), make(chan struct{})
	go func() {
		defer close(done)
		synctest.Run(func() { res <- f() })
	}()
	limit := time.NewTimer(time.Minute)
	defer limit.Stop()
	select {
	case <-done:
		return <-res
	case <-limit.C:
		t.Fatal("bubble never returned: a timer outlived Stop")
		return nil
	}
}

// TestBubbleNoTimerRunsAfterStop is TestNoTimerRunsAfterStop in virtual
// time: the bubble must return, and no timer may run after Stop.
func TestBubbleNoTimerRunsAfterStop(t *testing.T) {
	for i := 0; i < *trials; i++ {
		if err := inBubble(t, stopWithTimersOut); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
}

// TestBubbleMembershipTrials runs the */go rows of
// TestKillPromotesReplicaAndServes and TestJoinReadmitsAndServes
// -trials times each and reports the failures per row, by kind: a wait
// that timed out (the known dead-owner flake: a dead rank's NACKs use up
// an op's bounces before the replica promotion lands), a read that
// returned the pre-kill value from the promoted master, and any other.
// The flake fails about one trial in a hundred; more than one in ten
// fails the row.
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
				fails, kinds := 0, map[string]int{}
				for i := 0; i < *trials; i++ {
					err := inBubble(t, func() error {
						w, err := NewWorld(Config{Ranks: 4, Mode: mode, Engine: EngineGo, Reliability: relStress})
						if err != nil {
							return err
						}
						defer w.Stop()
						return tc.body(w)
					})
					if err != nil {
						kinds[failureKind(err)]++
						if fails++; fails == 1 {
							t.Logf("trial %d: %v", i, err)
						}
					}
				}
				t.Logf("%d failures in %d trials %v", fails, *trials, kinds)
				if 10*fails > *trials {
					t.Errorf("%d failures in %d trials", fails, *trials)
				}
			})
		}
	}
}

// failureKind sorts a membership trial's error: "timeout" (a wait gave
// up), "stale-read" (a read from the promoted master returned old bytes)
// or "other".
func failureKind(err error) string {
	switch {
	case errors.Is(err, ErrDeadlock):
		return "timeout"
	case strings.Contains(err.Error(), "from promoted master"):
		return "stale-read"
	}
	return "other"
}

// TestBubbleForceWithoutFaultsZeroRetransmits runs the goroutine-engine
// row of TestForceWithoutFaultsZeroRetransmits -trials times. On the
// wall clock an ack can lose a race with the retransmission timeout when
// the host is loaded; in virtual time the clock advances only once every
// goroutine is blocked, so no trial may fail.
func TestBubbleForceWithoutFaultsZeroRetransmits(t *testing.T) {
	fails := 0
	for i := 0; i < *trials; i++ {
		if err := inBubble(t, forceWithoutFaults); err != nil {
			if fails++; fails == 1 {
				t.Logf("trial %d: %v", i, err)
			}
		}
	}
	t.Logf("%d failures in %d trials", fails, *trials)
	if fails > 0 {
		t.Errorf("%d failures in %d trials", fails, *trials)
	}
}

// forceWithoutFaults is one goroutine-engine trial of
// TestForceWithoutFaultsZeroRetransmits, with its assertions.
func forceWithoutFaults() (err error) {
	w, err := NewWorld(Config{Ranks: 4, Mode: AGASNM, Engine: EngineGo, Reliability: ReliabilityConfig{Force: true}})
	if err != nil {
		return err
	}
	defer w.Stop()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	got, err := equivRun(w)
	if err != nil {
		return err
	}
	if got != equivGolden[AGASNM] {
		return fmt.Errorf("forced reliability perturbed golden counters\n got: %v\nwant: %v", got, equivGolden[AGASNM])
	}
	d := w.DeliveryStats()
	if d.Tracked == 0 {
		return fmt.Errorf("reliability forced on but nothing tracked")
	}
	if d.Retransmits != 0 || d.DupsSuppressed != 0 || d.Abandoned != 0 || d.StaleDrops != 0 {
		return fmt.Errorf("fault-free run shows degradation: %+v", d)
	}
	return nil
}
