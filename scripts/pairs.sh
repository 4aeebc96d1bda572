#!/usr/bin/env bash
# The pair protocol behind every wall-clock number: the repo benchmark on
# two revisions, in alternating pairs, judged and recorded.
#
#   scripts/pairs.sh <parent-rev> [<change-rev>] [--workload W]... [-n 10] [--seconds 8]
#   scripts/pairs.sh --aa <rev> [--workload W]... [-n 10] [--seconds 8]
#
# Without <change-rev> the change is the working tree. Without --workload
# every workload of BENCHMARK.json runs. `--aa <rev>` is `<rev> <rev>`:
# one build on both sides (an A/A set), whose rows say `role: aa`, and a
# claim it reports is one the host made, not the code.
#
# Each revision is exported with `git archive` into target/pairs/tree-<sha>
# (no worktree to prune) and built once, into a target directory of its
# own (`benchmark/run.sh` honours CARGO_TARGET_DIR); each run starts from
# its tree's root. Pair i runs the parent first when i is even, the change
# first when it is odd, both on the pair's seed. Seeds come from a counter
# recorded in BENCH_wall.json: the next set starts above every seed the
# file holds, so no seed repeats. A run's last stdout line is its result;
# one without `"correct": true`, or with failed operations, is a fault.
#
# The `pairs` bin of crates/bench judges every end-to-end metric (medians,
# the parent's interquartile range, pairs won, the claim rule and
# BENCHMARK.json's bounds) and writes the set; this script appends it to
# BENCH_wall.json under `sets`. The load average is printed before and
# after. Each run also records its bill: its CPU seconds (user + system,
# children included, from bash's `time`) and, timed just before it, the
# wall time of the bin's MD5 kernel on one thread and on two, whose ratio
# is the host's parallel ceiling `host_eff`. Exits 1 when a median is out
# of its bound or a run failed.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$PWD
PAIRS=target/pairs

usage() {
  sed -n '5p' "$0" | sed 's/^# *//' >&2
  exit 2
}

revs=() workloads=() pairs=10 seconds=8
while (($#)); do
  case $1 in
    --aa) revs+=("${2:?--aa needs a revision}" "$2"); shift 2 ;;
    --workload) workloads+=("${2:?--workload needs a name}"); shift 2 ;;
    -n) pairs=${2:?-n needs a count}; shift 2 ;;
    --seconds) seconds=${2:?--seconds needs a value}; shift 2 ;;
    -*) usage ;;
    *) revs+=("$1"); shift ;;
  esac
done
((${#revs[@]} == 1 || ${#revs[@]} == 2)) || usage
if ((${#workloads[@]} == 0)); then
  mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
fi
mkdir -p "$PAIRS"

# Prints `label<TAB>tree` for a revision: the commit's short hash and its
# exported tree, or for the working tree HEAD's hash (`+dirty` when the
# tree differs from it) and the repository itself.
tree_of() {
  local sha dir
  if [[ $1 == worktree ]]; then
    sha=$(git rev-parse --short=12 HEAD)
    [[ -z $(git status --porcelain) ]] || sha+=+dirty
    printf '%s\t%s\n' "$sha" "$ROOT"
    return
  fi
  sha=$(git rev-parse --short=12 "$1^{commit}")
  dir=$PAIRS/tree-$sha
  if [[ ! -d $dir ]]; then
    rm -rf "$dir.part" && mkdir -p "$dir.part"
    git archive "$sha" | tar -x -C "$dir.part"
    mv "$dir.part" "$dir"
  fi
  printf '%s\t%s\n' "$sha" "$ROOT/$dir"
}

IFS=$'\t' read -r parent parent_tree < <(tree_of "${revs[0]}")
IFS=$'\t' read -r change change_tree < <(tree_of "${revs[1]:-worktree}")
declare -A tree=([parent]=$parent_tree [change]=$change_tree)
declare -A build=([parent]=$ROOT/$PAIRS/build-$parent [change]=$ROOT/$PAIRS/build-$change)

for side in parent change; do
  echo "building $side (${tree[$side]})" >&2
  (cd "${tree[$side]}" && CARGO_TARGET_DIR=${build[$side]} cargo build --release --offline \
    --quiet --manifest-path benchmark/Cargo.toml)
done
cargo build --release --offline --quiet -p placeless-bench --bin pairs
PAIRS_BIN=$ROOT/target/release/pairs

first_seed=1
if [[ -f BENCH_wall.json ]]; then
  first_seed=$(jq '[.sets[].params.seeds[]] | max + 1' BENCH_wall.json)
fi
seeds=()
for ((i = 0; i < pairs; i++)); do seeds+=($((first_seed + i))); done

metrics=$(jq -r '.end_to_end[] | [.name, .better, .bound] | @tsv' BENCHMARK.json)
values=$PAIRS/values.tsv faults=$PAIRS/faults.txt bills=$PAIRS/bills.tsv
: >"$values"
: >"$faults"
: >"$bills"
load_before=$(cut -d' ' -f1-3 /proc/loadavg)
echo "load average before: $load_before" >&2

# Prints the wall seconds of the MD5 kernel on one thread, then on two.
kernel_times() {
  local t0 t1 t2
  t0=$EPOCHREALTIME
  "$PAIRS_BIN" --md5-load 1 >/dev/null
  t1=$EPOCHREALTIME
  "$PAIRS_BIN" --md5-load 2 >/dev/null
  t2=$EPOCHREALTIME
  awk -v a="$t0" -v b="$t1" -v c="$t2" 'BEGIN { printf "%.6f\t%.6f", b - a, c - b }'
}

# Runs `side` on `workload` with seed `seed` as pair `pair`, appending its
# bill, and its metric values or the run to the faults.
run() {
  local side=$1 workload=$2 seed=$3 pair=$4 line kernel cpu
  kernel=$(kernel_times)
  : >"$ROOT/$PAIRS/line"
  cpu=$({ TIMEFORMAT='%3U %3S'; time (cd "${tree[$side]}" && CARGO_TARGET_DIR=${build[$side]} \
    bash benchmark/run.sh --workload "$workload" --seconds "$seconds" --seed "$seed" --trace 0 \
    2>/dev/null | tail -n 1 >"$ROOT/$PAIRS/line"); } 2>&1) || true
  line=$(cat "$ROOT/$PAIRS/line")
  printf '%s\t%s\t%s\t%s\t%s\n' "$workload" "$side" "$pair" \
    "$(awk '{ print $1 + $2 }' <<<"$cpu")" "$kernel" >>"$bills"
  if ! jq -e '.correct == true and .failed == 0' <<<"$line" >/dev/null 2>&1; then
    echo "$side $workload seed $seed" >>"$faults"
    return
  fi
  while IFS=$'\t' read -r metric better bound; do
    printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\n' "$workload" "$metric" "$better" "$bound" "$side" "$pair" \
      "$(jq -r --arg m "$metric" '.metrics[$m].value' <<<"$line")" >>"$values"
  done <<<"$metrics"
}

for workload in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    echo "$workload: pair $((i + 1))/$pairs, seed ${seeds[i]}" >&2
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do run "$side" "$workload" "${seeds[i]}" "$i"; done
  done
done

load_after=$(cut -d' ' -f1-3 /proc/loadavg)
echo "load average after: $load_after" >&2
verdict=0
(cd "$PAIRS" && cargo run -q --release --offline --manifest-path "$ROOT/Cargo.toml" \
  -p placeless-bench --bin pairs -- "$ROOT/$values" --parent "$parent" --change "$change" \
  --seconds "$seconds" --seeds "$(IFS=,; echo "${seeds[*]}")" --load-before "$load_before" \
  --load-after "$load_after" --faults "$ROOT/$faults" --runs "$ROOT/$bills") || verdict=$?
((verdict < 2)) || exit "$verdict"

# The set joins BENCH_wall.json; the file's own env is the newest set's.
set_json=$PAIRS/BENCH_wall.json
if [[ -f BENCH_wall.json ]]; then
  jq -s '.[1] as $set | .[0] | .env = $set.env
    | .sets += [$set | del(.experiment, .deterministic)]' BENCH_wall.json "$set_json" \
    >"$PAIRS/merged.json"
else
  jq '{env, experiment, deterministic, sets: [del(.experiment, .deterministic)]}' "$set_json" \
    >"$PAIRS/merged.json"
fi
mv "$PAIRS/merged.json" BENCH_wall.json
echo "appended the set to BENCH_wall.json" >&2
exit "$verdict"
