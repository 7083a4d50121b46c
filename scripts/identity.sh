#!/usr/bin/env bash
# Byte-identity battery: does the working tree produce the same output
# bytes as <rev>?
#
#   scripts/identity.sh <rev>
#
# Extracts <rev> with `git archive` (once per commit, under
# target/identity/<sha>/tree), builds it and the working tree offline in
# release mode, each into its own target directory (target/identity/
# <sha>/target and target/), then runs the battery for each tree in a
# temp dir of its own, under both CI legs' environments: default, and
# RAYON_NUM_THREADS=4 CST_FAULT_SEED=7. The battery:
#   - `cstuner tune --stencil j3d7pt --quick --tuner T --seed 1`, for
#     each of the 8 tuners: stdout and the journal;
#   - `experiments all --quick` and `experiments all` at the default
#     scale (10 seeds): stdout and the 12 results/*.json of each;
#   - `tuner_shootout cheby 30`: stdout, the 8 journals and the
#     campaign archive's summaries;
#   - the campaign smoke (`examples/campaign_smoke.json`): its summaries;
#   - `kb build` on a copy of results/obs/warm-fixture, then warm runs
#     (`tune --quick --seed 3 --warm`) of random, forest, anneal and
#     opentuner: kb.json, stdout and the journals.
# Journals are compared wall-stripped: every key starting with `wall` is
# dropped. Prints one line per artifact, `equal <leg>/<artifact>` or
# `DIFF <leg>/<artifact>: <first differing byte>`, and exits 1 on any
# DIFF.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: scripts/identity.sh <rev>" >&2
  exit 2
fi
root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$1^{commit}")
work="$root/target/identity"
tree="$work/$sha/tree"

if [ ! -f "$tree/Cargo.toml" ]; then
  rm -rf "$tree"
  mkdir -p "$tree"
  git -C "$root" archive "$sha" | tar -x -C "$tree"
fi

build() {  # build <tree> <target-dir>
  (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --locked -q \
    --workspace --bins --example tuner_shootout)
}
build "$tree" "$work/$sha/target"
build "$root" "$root/target"

# Only the legs' own variables reach the runs.
unset CST_ADDR CST_FAULT_SEED CST_JOURNAL CST_MEMO_CAP CST_WARM RAYON_NUM_THREADS

battery() {  # battery <tree> <bin-dir> <out-dir> [VAR=value...]
  local src=$1 bin=$2 out=$3
  shift 3
  mkdir -p "$out"
  cd "$out"
  for t in cstuner garvey opentuner artemis random grid anneal forest; do
    env "$@" "$bin/cstuner" tune --stencil j3d7pt --quick --tuner "$t" --seed 1 \
      --journal "tune-$t.jsonl" > "tune-$t.stdout"
  done
  mkdir experiments experiments-full
  (cd experiments && env "$@" "$bin/experiments" all --quick > stdout.md 2> /dev/null)
  (cd experiments-full && env "$@" "$bin/experiments" all > stdout.md 2> /dev/null)
  mkdir shootout
  env "$@" CST_JOURNAL=shootout "$bin/examples/tuner_shootout" cheby 30 > shootout.stdout
  env "$@" "$bin/cstuner" campaign run "$src/examples/campaign_smoke.json" \
    --store campaign > /dev/null
  cp -r "$src/results/obs/warm-fixture" warm-kb
  "$bin/cstuner" kb build --store warm-kb > /dev/null
  for t in random forest anneal opentuner; do
    env "$@" "$bin/cstuner" tune --stencil j3d7pt --quick --tuner "$t" --seed 3 \
      --warm warm-kb --journal "warm-$t.jsonl" > "warm-$t.stdout"
  done
}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
run() {  # run <side> <tree> <bin-dir> <leg> [VAR=value...]: stderr to a log
  local side=$1 leg=$4
  mkdir -p "$out/log"
  if ! (battery "$2" "$3" "$out/$side/$leg" "${@:5}") 2> "$out/log/$side-$leg"; then
    tail -n 20 "$out/log/$side-$leg" >&2
    echo "identity.sh: the $side battery failed on the $leg leg" >&2
    exit 1
  fi
}
for leg in default faults; do
  legenv=()
  [ "$leg" = faults ] && legenv=(RAYON_NUM_THREADS=4 CST_FAULT_SEED=7)
  run rev "$tree" "$work/$sha/target/release" "$leg" "${legenv[@]}"
  run work "$root" "$root/target/release" "$leg" "${legenv[@]}"
done

strip_wall() {  # journal lines without their wall-clock keys
  sed -E 's/,"wall[a-z_]*":[^,}]*//g' "$1"
}

diffs=0
artifacts=$(cd "$out" && find rev work -type f | cut -d/ -f2- | sort -u)
for a in $artifacts; do
  r="$out/rev/$a" w="$out/work/$a"
  if [ ! -f "$r" ] || [ ! -f "$w" ]; then
    echo "DIFF $a: only in $([ -f "$r" ] && echo "$1" || echo 'the working tree')"
    diffs=$((diffs + 1))
    continue
  fi
  case $a in
    *.jsonl) verdict=$(cmp <(strip_wall "$r") <(strip_wall "$w") 2>&1) || true ;;
    *) verdict=$(cmp "$r" "$w" 2>&1) || true ;;
  esac
  if [ -z "$verdict" ]; then
    echo "equal $a"
  else
    verdict=${verdict#* differ: }
    echo "DIFF $a: ${verdict/#cmp: EOF on * after/one side ends after}"
    diffs=$((diffs + 1))
  fi
done
[ "$diffs" -eq 0 ]
