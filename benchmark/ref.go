package main

import (
	"runtime"
	"sync"
	"time"
)

// The reference kernel.
//
// The benchmark runs on small shared virtual machines whose speed drifts:
// on the host it was written on, the same deterministic simulation ran
// anywhere between 110K and 205K ops/s within one minute, in stretches of
// seconds, because latency to the shared last-level cache and the
// processor time the hypervisor grants both move with what the
// neighbours do. A run of ten seconds lands in one stretch or another, so
// two sets of runs of the same code differed by more than any bound worth
// having.
//
// Every host time the benchmark reports end to end is therefore measured
// in reference seconds. Between any two slices of a timed section, with
// the application at rest, a fixed kernel runs on every processor: a
// chain of dependent loads scattered over 4 MiB (past the private caches)
// with a fixed amount of dependent arithmetic after each. How long it
// takes, divided by refNominal, is how slow the host is right now; a
// slice's rates are multiplied and its costs divided by the mean of the
// samples around it. What is reported is what a host that ran the kernel
// in refNominal would have measured. The kernel shares no code with the
// program under test, so a change to the program cannot move it, and two
// commits measured on the same machine are compared in the same unit.
// driver.host_slowdown and driver.raw_ops_per_s report the correction and
// the uncorrected rate.

const (
	refWords = 1 << 20 // uint32s per goroutine
	refSteps = 50_000
	refALU   = 16 // xorshift rounds after each load: about a third of a step on a quiet host
	// refNominal is what the kernel took on the seed host in the median.
	// It only fixes the unit: a different value scales every reported
	// host time alike.
	refNominal = 8 * time.Millisecond
)

var ref struct {
	once  sync.Once
	mem   [][]uint32 // one table per processor
	walks uint64     // samples taken
	sink  uint64
}

func refInit() {
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		tbl := make([]uint32, refWords)
		x := mix64(uint64(g) + 1)
		for i := range tbl {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			tbl[i] = uint32(x >> 20)
		}
		ref.mem = append(ref.mem, tbl)
	}
}

// refFanOut runs f once per table, all at the same time, and waits.
func refFanOut(f func(g int, tbl []uint32)) {
	var wg sync.WaitGroup
	for g, tbl := range ref.mem {
		wg.Add(1)
		go func(g int, tbl []uint32) {
			defer wg.Done()
			f(g, tbl)
		}(g, tbl)
	}
	wg.Wait()
}

// hostSlowdown runs the reference kernel once, on every processor at the
// same time, and returns its duration as a multiple of refNominal.
func hostSlowdown() float64 {
	ref.once.Do(refInit)
	ref.walks++
	walk := ref.walks
	sums := make([]uint64, len(ref.mem))
	// Whatever ran before has pushed the tables out of the caches to a
	// degree that depends on what it was. One untimed pass over every
	// cache line brings them back, so that the timed walk starts from the
	// same state after a simulation of 1024 ranks as after an idle moment.
	refFanOut(func(g int, tbl []uint32) {
		var x uint64
		for i := 0; i < refWords; i += 16 {
			x += uint64(tbl[i])
		}
		sums[g] = x
	})
	t0 := time.Now()
	refFanOut(func(g int, tbl []uint32) {
		// Each sample walks its own path, so none finds the lines of the
		// one before it in the private caches.
		x, j := mix64(sums[g]+walk), uint32(0)
		for i := 0; i < refSteps; i++ {
			// The next index depends on the arithmetic, so loads and
			// arithmetic cannot overlap.
			j = tbl[(j^uint32(x))&(refWords-1)]
			x += uint64(j)
			for k := 0; k < refALU; k++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
		}
		sums[g] = x
	})
	d := time.Since(t0)
	for _, x := range sums {
		ref.sink += x
	}
	return float64(d) / float64(refNominal)
}
