package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareSets is -aa: read two sets of result lines (one file per
// workload, <prefix>-<workload>.jsonl, as aa.sh writes them), print each
// set's median and quartiles per metric × workload, and fail when the
// second median is worse than the first by more than the metric's bound.
func compareSets(out io.Writer, prefixes []string) int {
	if len(prefixes) != 2 {
		fmt.Fprintln(out, "usage: -aa <prefixA> <prefixB>")
		return 2
	}
	code := 0
	fmt.Fprintf(out, "%-12s %-18s %14s %14s %14s %8s | %14s %8s | %8s\n",
		"workload", "metric", "A q1", "A median", "A q3", "spread", "B median", "spread", "B vs A")
	for _, wl := range workloads {
		a, errA := readSet(prefixes[0] + "-" + wl.Name + ".jsonl")
		b, errB := readSet(prefixes[1] + "-" + wl.Name + ".jsonl")
		if errA != nil || errB != nil {
			fmt.Fprintf(out, "%s: %v %v\n", wl.Name, errA, errB)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			q1, med, q3 := quartiles(a[m.Name])
			r1, medB, r3 := quartiles(b[m.Name])
			worse := medB/med - 1
			if m.Better == "higher" {
				worse = 1 - medB/med
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  WORSE THAN BOUND"
				code = 1
			}
			if m.Name != "setup_s" && ((q3-q1)/med > m.Bound || (r3-r1)/medB > m.Bound) {
				verdict += "  SPREAD OVER BOUND"
				code = 1
			}
			fmt.Fprintf(out, "%-12s %-18s %14.4f %14.4f %14.4f %7.2f%% | %14.4f %7.2f%% | %+7.2f%%%s\n",
				wl.Name, m.Name, q1, med, q3, (q3-q1)/med*100, medB, (r3-r1)/medB*100, -worse*100, verdict)
		}
		if a["failed"][0] != 0 || b["failed"][0] != 0 {
			fmt.Fprintf(out, "%s: failed operations\n", wl.Name)
			code = 1
		}
	}
	return code
}

// readSet reads one file of result lines into per-metric value lists;
// "failed" holds the total of failed operations.
func readSet(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vals := map[string][]float64{"failed": {0}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, m := range r.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
		vals["failed"][0] += float64(r.Failed)
		if !r.Correct {
			vals["failed"][0]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(vals) == 1 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	return vals, nil
}
