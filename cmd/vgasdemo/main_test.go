package main

import "testing"

// TestCheckFlags: flag values that would reach a panic inside the tour
// (a replica count the 4-rank world cannot hold, a topology that does not
// parse) are refused before any world is built, so vgasdemo exits 2 with
// one line instead.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas int
		topology string
		ok       bool
	}{
		{"-replicas 9", 9, "", false},
		{"-replicas -1", -1, "", false},
		{"-topology bogus", 3, "bogus", false},
		{"-topology two-tier:oversub=NaN", 3, "two-tier:oversub=NaN", false},
		{"defaults, with a topology", 3, "dragonfly:group=8", true},
		{"-replicas 0", 0, "", true},
	} {
		if err := checkFlags(tc.replicas, tc.topology); (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}
