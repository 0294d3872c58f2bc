package main

import (
	"testing"

	"nmvgas/internal/exp"
)

// TestSweepFlags: flag values that would reach a panic inside an
// experiment (a replica count F16's 8-rank world cannot hold, a world of
// no localities for F17) are refused before any world is built, so
// vgasbench exits 2 with one line instead.
func TestSweepFlags(t *testing.T) {
	for _, tc := range []struct {
		name               string
		replicas           int
		localities, shards string
		ok                 bool
	}{
		{"-replicas 99 F16", 99, "", "", false},
		{"-replicas 8 F16", 8, "", "", false},
		{"-localities 0 F17", 0, "0", "", false},
		{"-localities 256,x F17", 0, "256,x", "", false},
		{"-shards -1 F17", 0, "", "-1", false},
		{"-replicas 7 -localities 1,256 -shards 0,4", 7, "1,256", "0,4", true},
	} {
		o := exp.Options{Replicas: tc.replicas}
		if err := sweeps(&o, tc.localities, tc.shards); (err == nil) != tc.ok {
			t.Errorf("%s: sweeps = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}
