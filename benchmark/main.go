// Command benchmark is the repository's one benchmark: five closed-loop
// workloads over both execution engines, end-to-end metrics from an
// untraced pass, per-layer metrics and a span file from a traced pass,
// and a correctness check folded into every number. README.md in this
// directory has the metric tables and how to run it.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all five, one after another)")
		seed    = flag.Int64("seed", 1, "seed for every key stream, fault plan and migration target")
		seconds = flag.Float64("seconds", runSeconds, "length of the measured run")
		traced  = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass and probes, per-layer metrics")
		traceTo = flag.String("trace-out", "", "span file of the traced pass (default benchmark/out/trace-<workload>.json)")
		probe   = flag.String("probe", "", "run only the isolated probes whose name contains this string, print them and exit")
		smoke   = flag.Bool("smoke", false, "all five workloads at 1/500 scale, traced, for a quick end-to-end check")
		aa      = flag.Bool("aa", false, "compare two result sets: -aa <prefixA> <prefixB> (see aa.sh)")
		list    = flag.Bool("list", false, "list workloads and metrics, then exit")
		spec    = flag.Bool("benchmark-json", false, "print the BENCHMARK.json that matches this program, then exit")
	)
	flag.Parse()
	start := time.Now()
	code := 0
	switch {
	case *list:
		printSpec(os.Stdout)
	case *spec:
		os.Stdout.Write(benchmarkJSON())
	case *aa:
		code = compareSets(os.Stdout, flag.Args())
	case *probe != "":
		printProbes(os.Stdout, *probe)
	case *smoke:
		code = runSmoke(os.Stdout, *seed)
	default:
		code = runWorkloads(os.Stdout, *name, *seed, *seconds, *traced == 1, *traceTo)
	}
	fmt.Fprintf(os.Stderr, "benchmark: done in %.1fs, exit %d\n", time.Since(start).Seconds(), code)
	// Every world has been stopped by now; os.Exit makes sure nothing the
	// process started outlives the result line.
	os.Exit(code)
}
