#!/usr/bin/env bash
# A/B the repository benchmark (perfbench) between a base revision and the
# working tree: N alternating pairs (ABBA) of one workload, one seed, then
# each end-to-end metric's median and quartiles per side, the mean paired
# log-ratio ln(change/base) with its leave-one-pair-out jackknife standard
# error (Maiboroda & Sugakova, arXiv 1912.07948), the change's win count,
# and a verdict against the bounds in BENCHMARK.json.
#
# Usage: scripts/perf_ab.sh [-w WORKLOAD] [-n PAIRS] [-s SEED] [-t SECONDS]
#                           [-b BASE_REV] [-d WORKDIR]
#
#   -w  perfbench workload                     (default: sweep-narrow-acc)
#   -n  pairs of runs                          (default: 10)
#   -s  seed passed to both sides              (default: 1)
#   -t  seconds per run                        (default: BENCHMARK.json run_seconds)
#   -b  base revision                          (default: HEAD)
#   -d  work directory for trees, builds, logs (default: ${TMPDIR:-/tmp}/perf_ab)
#
# The base is exported with `git archive` (nothing is registered in the
# repository, unlike a worktree); the change is the working tree's tracked
# and untracked, non-ignored files. Both build offline, each into its own
# target directory, and run as built binaries. Each run also records the
# share of CPU time the host spent idle and stolen (read from /proc/stat).
#
# A metric is a GAIN when the change wins at least 9/10 of the pairs (ties
# count for neither side) and the medians differ by more than the base's
# interquartile range; a REGRESSION when the change's median is worse than
# the base's by more than the metric's bound. Exits 1 on a regression, an
# incorrect run, or a failed operation share above the base's.
set -euo pipefail

workload=sweep-narrow-acc
pairs=10
seed=1
seconds=
base_rev=HEAD
work="${TMPDIR:-/tmp}/perf_ab"
while getopts "w:n:s:t:b:d:h" opt; do
  case "$opt" in
    w) workload=$OPTARG ;;
    n) pairs=$OPTARG ;;
    s) seed=$OPTARG ;;
    t) seconds=$OPTARG ;;
    b) base_rev=$OPTARG ;;
    d) work=$OPTARG ;;
    *) sed -n '2,16p' "$0"; exit 2 ;;
  esac
done

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
bench_json="$repo/BENCHMARK.json"
if [[ -z "$seconds" ]]; then
  seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$bench_json")
fi
base_sha=$(git -C "$repo" rev-parse --verify "$base_rev^{commit}")
mkdir -p "$work"

# The base tree is re-exported only when the revision changes, so its
# build stays incremental.
if [[ "$(cat "$work/base/.perf_ab_rev" 2>/dev/null)" != "$base_sha" ]]; then
  rm -rf "$work/base"
  mkdir -p "$work/base"
  git -C "$repo" archive "$base_sha" | tar -x -C "$work/base"
  echo "$base_sha" > "$work/base/.perf_ab_rev"
fi
# tar keeps modification times, so unchanged files do not rebuild.
rm -rf "$work/change"
mkdir -p "$work/change"
(cd "$repo" && git ls-files -z -co --exclude-standard | python3 -c '
import os, sys
paths = sys.stdin.buffer.read().split(b"\0")
sys.stdout.buffer.write(b"".join(p + b"\0" for p in paths if p and os.path.lexists(p)))
' | tar -c --null -T - -f -) | tar -x -C "$work/change"

for side in base change; do
  echo "perf_ab: building $side" >&2
  CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline --quiet \
    --manifest-path "$work/$side/perfbench/Cargo.toml"
done

# cpu_times prints "total idle steal" jiffies from the aggregate cpu line.
cpu_times() {
  awk '/^cpu /{t=0; for (i=2; i<=NF; i++) t+=$i; print t, $5+$6, $9}' /proc/stat
}

runs="$work/runs-$workload-$seed.jsonl"
: > "$runs"
for ((p = 0; p < pairs; p++)); do
  if ((p % 2 == 0)); then order="base change"; else order="change base"; fi
  for side in $order; do
    read -r t0 i0 s0 < <(cpu_times)
    # An incorrect run exits 1 but still prints its result line, which the
    # summary counts; any other failure stops the A/B.
    line=$("$work/target-$side/release/perfbench" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace 0 | tail -n 1) || [[ "$line" == '{"correct": false'* ]]
    read -r t1 i1 s1 < <(cpu_times)
    python3 - "$side" "$p" "$line" "$((t1 - t0))" "$((i1 - i0))" "$((s1 - s0))" >> "$runs" <<'EOF'
import json, sys
side, pair, line, total, idle, steal = sys.argv[1:]
total = max(int(total), 1)
print(json.dumps({"side": side, "pair": int(pair), "result": json.loads(line),
                  "idle_pct": 100 * int(idle) / total, "steal_pct": 100 * int(steal) / total}))
EOF
    echo "perf_ab: pair $p $side done" >&2
  done
done

python3 - "$runs" "$bench_json" "$workload" "$seed" "$seconds" "$base_sha" <<'EOF'
import json, math, statistics, sys

runs_path, bench_path, workload, seed, seconds, base_sha = sys.argv[1:]
runs = [json.loads(l) for l in open(runs_path)]
bench = json.load(open(bench_path))
pairs = sorted({r["pair"] for r in runs})
by = {(r["side"], r["pair"]): r for r in runs}

def log_ratio_jackknife(a, b):
    """Mean of ln(b_i/a_i) over pairs and its leave-one-pair-out jackknife
    standard error; None when a value is not positive."""
    if any(x <= 0 for x in a + b):
        return None
    r = [math.log(y / x) for x, y in zip(a, b)]
    n = len(r)
    if n < 2:
        return r[0], float("nan")
    loo = [(sum(r) - ri) / (n - 1) for ri in r]
    m = sum(loo) / n
    return sum(r) / n, math.sqrt((n - 1) / n * sum((x - m) ** 2 for x in loo))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"workload {workload}  seed {seed}  {seconds} s/run  {len(pairs)} ABBA pairs  base {base_sha[:12]} vs working tree")
print(f"{'run':>10} {'side':>6} {'idle%':>6} {'steal%':>6}  correct  failed/attempted")
for r in runs:
    res = r["result"]
    print(f"{r['pair']:>10} {r['side']:>6} {r['idle_pct']:6.1f} {r['steal_pct']:6.1f}  "
          f"{str(res['correct']).lower():>7}  {res['failed']}/{res['attempted']}")

bad = False
print()
print(f"{'metric':>16} {'base q1/med/q3':>32} {'change q1/med/q3':>32} {'ratio':>7} "
      f"{'ln ratio ± jk se':>18} {'wins':>6}  verdict")
for m in bench["end_to_end"]:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    val = lambda side, p: by[(side, p)]["result"]["metrics"][name]["value"]
    a = [val("base", p) for p in pairs]
    b = [val("change", p) for p in pairs]
    qa, qb = quartiles(a), quartiles(b)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    ratio = qb[1] / qa[1] if qa[1] else float("inf")
    worse = (ratio - 1) if lower else (1 - ratio)
    if worse > bound:
        verdict, bad = f"REGRESSION (worse by {worse:.1%} > bound {bound:.0%})", True
    elif wins >= 0.9 * len(pairs) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        verdict = "GAIN"
    else:
        verdict = f"no resolvable gain (bound {bound:.0%})"
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    jk = log_ratio_jackknife(a, b)
    jk = f"{jk[0]:+.4f} ± {jk[1]:.4f}" if jk else "n/a"
    print(f"{name:>16} {fmt(qa):>32} {fmt(qb):>32} {ratio:7.3f} {jk:>18} "
          f"{wins:>3}/{len(pairs):<2}  {verdict}")

share = lambda side: sum(by[(side, p)]["result"]["failed"] for p in pairs) / max(
    1, sum(by[(side, p)]["result"]["attempted"] for p in pairs))
if any(not r["result"]["correct"] for r in runs):
    print("INCORRECT: a run reported correct: false")
    bad = True
if share("change") > share("base"):
    print(f"FAILED SHARE: change {share('change'):.3%} > base {share('base'):.3%}")
    bad = True
sys.exit(1 if bad else 0)
EOF
