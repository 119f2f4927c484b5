#!/usr/bin/env bash
# Runs one BENCHMARK.json workload in alternating pairs on a base revision
# and on the working tree, and prints a verdict per end-to-end metric.
#
# usage: ab-pairs.sh <base-rev> <workload> [pairs] [seconds] [first-seed]
#
# The base revision's committed files are exported with `git archive`, so
# a killed run leaves nothing registered in .git, and removed on exit; the
# working tree is built in place. Each side has its own CARGO_TARGET_DIR
# under target/ab/, and both run BENCHMARK.json's command. Pair i runs
# seed first-seed + i on both sides, the base first in even pairs and the
# change first in odd ones. Defaults: 10 pairs, BENCHMARK.json's
# run_seconds, first seed 1. Every raw result line is kept in
# target/ab/<workload>-<first seed>-<last seed>.jsonl, and the runs'
# stderr in the .log beside it.
#
# Verdicts, per metric, from its `better` and `bound` in BENCHMARK.json
# ("spread" is the base's interquartile range over its median):
#   gain        the change won at least 9 pairs and 9 in 10, and its median
#               beats the base's by more than the base's interquartile range
#   worse       the change's median is worse than the base's by more than
#               the bound, and the spread is within the bound or every
#               change run loses to every base run
#   unresolved  the spread exceeds the bound, unless every change run
#               beats every base run
#   within      none of the above
# Exits nonzero if any run fails, or reports `correct: false` or
# `failed > 0`.
set -euo pipefail

if [ $# -lt 2 ]; then
  sed -n '5p' "$0" >&2
  exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base_rev=$(git rev-parse --verify "$1^{commit}")
workload=$2
pairs=${3:-10}
seconds=${4:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
first_seed=${5:-1}
last_seed=$((first_seed + pairs - 1))

ab="$root/target/ab"
base_src="$ab/base-src"
trap 'rm -rf "$base_src"' EXIT
rm -rf "$base_src"
mkdir -p "$base_src"
git archive "$base_rev" | tar -x -C "$base_src"

mapfile -t command < <(python3 -c '
import json
print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')

build() { # <side> <source root>
  echo "building $1 in $2" >&2
  (cd "$2" && CARGO_TARGET_DIR="$ab/$1" cargo build --release --quiet --offline \
    --manifest-path benchmark/Cargo.toml)
}
build base "$base_src"
build change "$root"

raw="$ab/$workload-$first_seed-$last_seed.jsonl"
log="${raw%.jsonl}.log"
: > "$raw"
: > "$log"
run() { # <side> <source root> <pair> <seed>
  local line status=0
  echo "== pair $3 seed $4 $1" >> "$log"
  line=$(cd "$2" && CARGO_TARGET_DIR="$ab/$1" "${command[@]}" \
    --workload "$workload" --seed "$4" --seconds "$seconds" --trace 0 2>> "$log" \
    | tail -n 1) || status=$?
  case $line in
    \{*) ;;
    *) line=null ;;
  esac
  printf '{"side": "%s", "pair": %d, "seed": %d, "status": %d, "result": %s}\n' \
    "$1" "$3" "$4" "$status" "$line" >> "$raw"
  echo "pair $3 seed $4 $1: exit $status" >&2
}
for i in $(seq 0 $((pairs - 1))); do
  seed=$((first_seed + i))
  if [ $((i % 2)) -eq 0 ]; then
    run base "$base_src" "$i" "$seed"
    run change "$root" "$i" "$seed"
  else
    run change "$root" "$i" "$seed"
    run base "$base_src" "$i" "$seed"
  fi
done

python3 - "$raw" BENCHMARK.json "$base_rev" "$workload" <<'EOF'
import json, math, statistics, sys

raw_path, bench_path, base_rev, workload = sys.argv[1:]
bench = json.load(open(bench_path))
runs = {"base": {}, "change": {}}
failed = []
for line in open(raw_path):
    rec = json.loads(line)
    res = rec["result"]
    if rec["status"] != 0 or not isinstance(res, dict) \
            or res.get("correct") is not True or res.get("failed", 1) > 0:
        failed.append(f'pair {rec["pair"]} seed {rec["seed"]} {rec["side"]}: '
                      f'exit {rec["status"]}, result {res}')
    if isinstance(res, dict):
        runs[rec["side"]][rec["pair"]] = res["metrics"]
pairs = sorted(set(runs["base"]) & set(runs["change"]))


def quartiles(xs):
    if len(xs) == 1:
        return xs * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


def over(x, base):
    if base == 0:
        return 0.0 if x == 0 else math.inf
    return x / abs(base)


rows = [("metric", "base median [q1, q3]", "change median [q1, q3]",
         "ratio", "spread", "wins", "ties", "verdict")]
for metric in bench["end_to_end"] if pairs else []:
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    base = [runs["base"][p][name]["value"] for p in pairs]
    change = [runs["change"][p][name]["value"] for p in pairs]
    beats = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    wins = sum(beats(c, b) for c, b in zip(change, base))
    ties = sum(c == b for c, b in zip(change, base))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    spread = over(bq3 - bq1, bmed)
    gain = bmed - cmed if lower else cmed - bmed
    if wins >= max(9, math.ceil(0.9 * len(pairs))) and gain > bq3 - bq1:
        verdict = "gain"
    elif over(-gain, bmed) > bound and (
            spread <= bound or all(beats(b, c) for c in change for b in base)):
        verdict = "worse"
    elif spread > bound and not all(beats(c, b) for c in change for b in base):
        verdict = "unresolved"
    else:
        verdict = "within"
    rows.append((name, f"{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]",
                 f"{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]",
                 f"{over(cmed, bmed):.3f}", f"{spread:.3f}", str(wins), str(ties), verdict))

print(f"{workload}: {len(pairs)} pairs, base {base_rev[:12]} against the working tree")
print(f"raw results: {raw_path}")
widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
for r in rows:
    print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
for why in failed:
    print(f"FAILED: {why}")
sys.exit(1 if failed else 0)
EOF
