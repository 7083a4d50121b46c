#!/usr/bin/env bash
# Paired end-to-end A/B: the working tree against <rev> on one workload
# of the benchmark.
#
#   scripts/ab.sh <rev> --workload W --pairs N [--seed S]
#
# Extracts <rev> as scripts/identity.sh does (once per commit, under
# target/identity/<sha>/tree) and runs `bash cstbench/run.sh --workload W
# --seed <seed> --seconds <run_seconds> --trace 0` in each tree, from its
# root, with its own target directory (target/identity/<sha>/target and
# target/). Pair i (0-based) runs seed S + i (S defaults to 1) in both
# trees back to back: <rev> first in even pairs, the working tree first
# in odd ones. The run length is BENCHMARK.json's `run_seconds`.
#
# Prints one JSON object: for each end-to-end metric, and for each
# wall-clock value cstbench prints beside the rescaled ones (`raw_*`),
# the median and quartiles of each side (linear interpolation) and
# change-better k/n over the pairs, by the metric's direction in
# BENCHMARK.json; then every run's metrics, wall-clock values, machine
# slowdown, outcome_digest and failed count. Exits 1 when a pair's
# outcome_digests differ or a run fails a session, 2 on bad usage.
set -euo pipefail

usage() {
  echo "usage: scripts/ab.sh <rev> --workload W --pairs N [--seed S]" >&2
  exit 2
}
[ $# -ge 1 ] || usage
rev=$1
shift
workload= pairs= seed=1
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case $1 in
    --workload) workload=$2 ;;
    --pairs) pairs=$2 ;;
    --seed) seed=$2 ;;
    *) usage ;;
  esac
  shift 2
done
[ -n "$workload" ] || usage
[[ $pairs =~ ^[1-9][0-9]*$ && $seed =~ ^[0-9]+$ ]] || usage

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
work="$root/target/identity"
tree="$work/$sha/tree"
if [ ! -f "$tree/Cargo.toml" ]; then
  rm -rf "$tree"
  mkdir -p "$tree"
  git -C "$root" archive "$sha" | tar -x -C "$tree"
fi
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$root/BENCHMARK.json")

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
bench() {  # bench <side> <seed>: one run, its stdout kept, its status not
  local src=$root target=$root/target
  if [ "$1" = parent ]; then src=$tree target=$work/$sha/target; fi
  (cd "$src" && CARGO_TARGET_DIR="$target" bash cstbench/run.sh --workload "$workload" \
    --seed "$2" --seconds "$seconds" --trace 0) > "$out/$1-$2.txt" || true
  echo "ab.sh: $1 seed $2 done" >&2
}
for ((i = 0; i < pairs; i++)); do
  s=$((seed + i))
  if ((i % 2 == 0)); then
    bench parent "$s"
    bench change "$s"
  else
    bench change "$s"
    bench parent "$s"
  fi
done

python3 - "$out" "$root/BENCHMARK.json" "$workload" "$sha" "$seed" "$pairs" "$seconds" <<'PY'
import json, os, statistics, sys

out, bench_json, workload, sha, seed, pairs, seconds = sys.argv[1:]
seed, pairs = int(seed), int(pairs)
better = {m["name"]: m["better"] for m in json.load(open(bench_json))["end_to_end"]}


def parse(path):
    """One cstbench run's stdout: its result line, digest, slowdown and wall-clock values."""
    run = {"outcome_digest": None, "machine_slowdown": None, "raw": {}, "failed": None}
    lines = open(path).read().splitlines() if os.path.exists(path) else []
    in_raw = False
    for line in lines:
        if line.startswith("outcome_digest "):
            run["outcome_digest"] = line.split()[1]
        elif line.startswith("machine slowdown "):
            run["machine_slowdown"] = float(line.split()[2])
            in_raw = True
        elif in_raw and line.startswith("  "):
            name, value = line.split()[:2]
            run["raw"][name] = float(value)
        else:
            in_raw = False
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        run["failed"] = result["failed"]
        run["attempted"] = result["attempted"]
        run["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return run


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": med, "q1": q1, "q3": q3}


runs, faults = [], []
for i in range(pairs):
    s = seed + i
    order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
    pair = {}
    for side in order:
        run = parse(os.path.join(out, f"{side}-{s}.txt"))
        runs.append({"seed": s, "tree": side, "first": side == order[0], **run})
        pair[side] = run
        if run["failed"] is None:
            faults.append(f"{side} seed {s}: no result line")
        elif run["failed"] > 0:
            faults.append(f"{side} seed {s}: {run['failed']} failed sessions")
    digests = {pair[side]["outcome_digest"] for side in pair}
    if len(digests) != 1:
        faults.append(f"seed {s}: outcome_digests differ ({', '.join(map(str, sorted(digests, key=str)))})")

summary = {}
ok = [r for r in runs if r["failed"] is not None]
names = [(m, "metrics", m) for m in better] + [
    ("raw_" + m, "raw", m) for m in better if any(m in r["raw"] for r in ok)
]
for key, section, metric in names:
    by = {side: {r["seed"]: r[section][metric] for r in ok if r["tree"] == side and metric in r[section]}
          for side in ("parent", "change")}
    if not by["parent"] or not by["change"]:
        continue
    sign = 1 if better[metric] == "higher" else -1
    seeds = sorted(set(by["parent"]) & set(by["change"]))
    wins = sum(sign * (by["change"][s] - by["parent"][s]) > 0 for s in seeds)
    summary[key] = {
        "parent": quartiles(sorted(by["parent"].values())),
        "change": quartiles(sorted(by["change"].values())),
        "better": better[metric],
        "change_better": f"{wins}/{len(seeds)}",
    }

slowdowns = {side: [r["machine_slowdown"] for r in ok if r["tree"] == side and r["machine_slowdown"]]
             for side in ("parent", "change")}
row = {
    "workload": workload,
    "parent": sha,
    "pairs": pairs,
    "seeds": f"{seed}..{seed + pairs - 1}",
    "run_seconds": float(seconds),
    "outcome_digest_equal_in_every_pair": not any("digests" in f for f in faults),
    "failed_sessions": sum(r["failed"] or 0 for r in runs),
    "machine_slowdown_range": {side: [min(v), max(v)] for side, v in slowdowns.items() if v},
    "summary": summary,
    "runs": runs,
    "faults": faults,
}
print(json.dumps(row))
sys.exit(1 if faults else 0)
PY
