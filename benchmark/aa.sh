#!/usr/bin/env bash
# A/A check: run the untraced benchmark in two sets of N runs per workload
# (same code, same seeds in both sets), print each set's median and
# quartiles per metric x workload, and exit non-zero if the second median
# is worse than the first by more than the metric's bound, or a spread
# exceeds it.
#
#   bash benchmark/aa.sh [runs-per-set, default 5] [seconds, default 15] [first seed, default 1]
#
# Every run is a foreground child of this script. On exit the script kills
# and reports anything that is still alive under it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
runs=${1:-5}
seconds=${2:-15}
seed0=${3:-1}

# cleanup reports and kills what is still alive under this script: its
# children and, when it leads its own process group, the group's other
# members. The listing's own helper processes show up in it too, so each
# candidate is checked again once the listing has returned and they are gone.
cleanup() {
	code=$?
	trap - EXIT
	cand=$({
		pgrep -P $$
		if [ "$(ps -o pgid= -p $$ | tr -d ' ')" = "$$" ]; then pgrep -g $$; fi
	} | sort -u || true)
	left=
	for pid in $cand; do
		if [ "$pid" != "$$" ] && kill -0 "$pid" 2>/dev/null; then left="$left $pid"; fi
	done
	if [ -n "$left" ]; then
		echo "benchmark/aa.sh: processes left running:$left" >&2
		kill -KILL $left 2>/dev/null || true
		code=1
	fi
	exit $code
}
trap cleanup EXIT

bash benchmark/run.sh -list >/dev/null # builds once
bin="$PWD/.bench_build/benchmark"
out=benchmark/out
mkdir -p "$out"
names=$("$bin" -list 2>/dev/null | awk '/^workloads:/{on=1;next} /^end-to-end/{on=0} on{print $1}')
for set in A B; do
	for wl in $names; do : >"$out/aa-$set-$wl.jsonl"; done
	for i in $(seq 0 $((runs - 1))); do
		for wl in $names; do
			"$bin" --workload "$wl" --seed $((seed0 + i)) --seconds "$seconds" --trace 0 2>/dev/null |
				tail -n 1 >>"$out/aa-$set-$wl.jsonl"
		done
	done
done
"$bin" -aa "$out/aa-A" "$out/aa-B"
