#!/bin/sh
# Interleaved A/B of the serving benchmark between two revisions, both
# run on the same host.
#
#   tools/ab.sh [-w WORKLOAD]... [-n PAIRS] [-d DIR] <base> <change>
#
#   -w  workload to run (repeatable; default: every workload in
#       BENCHMARK.json)
#   -n  seed pairs: seeds 1..PAIRS (default 10)
#   -d  scratch directory (default ${TMPDIR:-/tmp}/rdfdb-ab)
#
# <base> and <change> are git revisions, or WORKTREE for the working
# tree (tracked files plus staged new ones).
#
# Each side is exported with `git archive` into DIR/base and
# DIR/change — an export needs no worktree bookkeeping in .git and can
# hold an uncommitted change — and builds its own servebench there.
# For each workload and seed N the two sides run
#
#   python3 servebench/run.py --workload W --seed N --seconds S --trace 0
#
# (S is BENCHMARK.json's run_seconds) back to back, base first for odd N and change first for even N, so
# drift on a shared host lands on both sides alike. Every run's JSON
# result line is kept under DIR/results/. The summary prints, for each
# workload and BENCHMARK.json end-to-end metric, both medians, the
# base's interquartile range, the change/base ratio, how many pairs the
# change won, and whether the change's median stays within the metric's
# bound; then the failed-operation counts of each side.
set -eu

workloads=""
pairs=10
dir=${TMPDIR:-/tmp}/rdfdb-ab
while getopts "w:n:d:" opt; do
  case $opt in
    w) workloads="$workloads $OPTARG" ;;
    n) pairs=$OPTARG ;;
    d) dir=$OPTARG ;;
    *) sed -n '2,13p' "$0" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [ $# -ne 2 ]; then
  sed -n '2,13p' "$0" >&2
  exit 2
fi

repo=$(git rev-parse --show-toplevel)
cd "$repo"
# The run length, then every workload BENCHMARK.json lists.
read -r seconds all_workloads <<SPEC
$(python3 -c 'import json; b = json.load(open("BENCHMARK.json")); print(b["run_seconds"], *(w["name"] for w in b["workloads"]))')
SPEC
workloads=${workloads:-$all_workloads}

# Export one side: a revision, or the working tree as a throwaway
# commit object (`git stash create` touches neither the index nor the
# stash list; it prints nothing when the tree is clean).
export_side() {
  rev=$1
  out=$2
  if [ "$rev" = WORKTREE ]; then
    rev=$(git stash create)
    rev=${rev:-HEAD}
  fi
  rm -rf "$out"
  mkdir -p "$out"
  git archive "$rev" | tar -x -C "$out"
  echo "$1 -> $(git rev-parse --short "$rev")" > "$out/AB_REVISION"
}

build_side() {
  (
    cd "$1"
    gen=""
    if command -v ninja > /dev/null 2>&1; then gen="-G Ninja"; fi
    # shellcheck disable=SC2086  # $gen is empty or two words
    cmake -S servebench -B .bench_build/servebench \
      -DCMAKE_BUILD_TYPE=Release $gen > build.log 2>&1
    cmake --build .bench_build/servebench -j "$(nproc)" >> build.log 2>&1
  ) || { echo "build of $1 failed; see $1/build.log" >&2; exit 1; }
}

mkdir -p "$dir/results"
for side in base change; do
  if [ $side = base ]; then rev=$1; else rev=$2; fi
  export_side "$rev" "$dir/$side"
  build_side "$dir/$side"
  echo "$side: $(cat "$dir/$side/AB_REVISION")" >&2
done

run_one() {
  side=$1
  workload=$2
  seed=$3
  log="$dir/results/$workload.$side.seed$seed"
  (cd "$dir/$side" &&
    python3 servebench/run.py --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0) > "$log.out" 2> "$log.err" || true
  tail -n 1 "$log.out" > "$log.json"
  echo "  $workload seed $seed $side done" >&2
}

for workload in $workloads; do
  seed=1
  while [ "$seed" -le "$pairs" ]; do
    if [ $((seed % 2)) -eq 1 ]; then
      run_one base "$workload" "$seed"
      run_one change "$workload" "$seed"
    else
      run_one change "$workload" "$seed"
      run_one base "$workload" "$seed"
    fi
    seed=$((seed + 1))
  done
done

python3 - "$dir/results" "$pairs" "$repo/BENCHMARK.json" $workloads <<'EOF'
import json
import statistics
import sys

results, pairs, spec_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
spec = json.load(open(spec_path))


def load(workload, side, seed):
    try:
        with open("%s/%s.%s.seed%d.json" % (results, workload, side, seed)) as f:
            return json.loads(f.read())
    except (OSError, ValueError):
        return None


def quartiles(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[2]


verdict = 0
for workload in sys.argv[4:]:
    runs = {side: [load(workload, side, s) for s in range(1, pairs + 1)]
            for side in ("base", "change")}
    print("\n%s (%d pairs)" % (workload, pairs))
    print("%-28s %12s %12s %10s %8s %5s  %s" % (
        "metric", "base", "change", "base IQR", "ratio", "wins", "bound"))
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        both = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                for b, c in zip(runs["base"], runs["change"])
                if b and c and name in b["metrics"] and name in c["metrics"]]
        if not both:
            print("%-28s no complete pair" % name)
            verdict = 1
            continue
        base = [b for b, _ in both]
        change = [c for _, c in both]
        mb, mc = statistics.median(base), statistics.median(change)
        q1, q3 = quartiles(base)
        wins = sum(1 for b, c in both if (c < b if lower else c > b))
        ratio = mc / mb if mb else float("nan")
        worse = (mc - mb) / mb if lower else (mb - mc) / mb
        ok = worse <= m["bound"]
        verdict |= not ok
        print("%-28s %12.4g %12.4g %10.4g %8.3f %2d/%-2d  %s %+.1f%% (bound %g%%)"
              % (name, mb, mc, q3 - q1, ratio, wins, len(both),
                 "ok  " if ok else "FAIL", -100 * worse, 100 * m["bound"]))
    for side in ("base", "change"):
        done = [r for r in runs[side] if r]
        print("%-6s runs %d/%d, failed ops %d of %d attempted" % (
            side, len(done), pairs, sum(r["failed"] for r in done),
            sum(r["attempted"] for r in done)))
        verdict |= len(done) < pairs or any(r["failed"] for r in done)
sys.exit(verdict)
EOF
