#!/usr/bin/env bash
# Full local gate: everything CI runs, in the order cheapest-feedback-first.
#
#   scripts/check.sh            # build + test + fmt + clippy
#   OFFLINE=1 scripts/check.sh  # pass --offline to every cargo call
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=()
if [[ "${OFFLINE:-0}" == "1" ]]; then
  CARGO_FLAGS+=(--offline)
fi

# Announces a stage. Under GitHub Actions each stage is a log group, so it
# folds in the job log and the stage that failed is the one left open.
stage() {
  if [[ -z "${GITHUB_ACTIONS:-}" ]]; then
    echo "==> $*"
    return
  fi
  if [[ -n "${STAGE_OPEN:-}" ]]; then
    echo "::endgroup::"
  fi
  STAGE_OPEN=1
  echo "::group::$*"
}

stage "cargo fmt --check"
cargo fmt --all -- --check

# The design record and the experiment log only shrink: a docs PR lowers a
# ceiling here, no other PR raises one.
stage "docs ceilings"
for ceiling in DESIGN.md:81740 EXPERIMENTS.md:101864; do
  doc=${ceiling%%:*} max=${ceiling#*:}
  size=$(wc -c <"$doc")
  echo "$doc: $size of $max bytes"
  if (( size > max )); then
    echo "$doc grew past its ceiling ($size > $max bytes)" >&2
    exit 1
  fi
done

# Every map keyed by ids, signatures or pairs of them hashes with the one
# seeded hasher (`placeless_core::keymap`): a hit probes two such maps, and
# `std`'s default SipHash cost it more than the probes did.
stage "per-key maps use the key hasher"
keyed='(EntryKey|Signature|DocumentId|UserId|\((DocumentId|UserId), (DocumentId|UserId)\))'
if grep -rnE "Hash(Map|Set)<$keyed[,>]" crates/cache/src crates/core/src/space.rs; then
  echo "a map keyed by ids or signatures is a KeyMap or a KeySet" >&2
  exit 1
fi

# Every option field is set, and every public function called, by some
# caller outside the tests: an experiment, the benchmark, an example or a
# tool. One that none reaches is a constant or goes (DESIGN.md, "What no
# run reaches"); the script's allow-list names the exceptions, each
# function with the test that reaches it. The functions are the
# compiler's census: two `cargo check` passes over mirrors of the tree
# under target/census/surface/ (about 20 s warm, a few minutes cold).
stage "option fields and public functions have callers outside the tests (census, surface half)"
mkdir -p target/census
if ! bash scripts/census.sh --surface >target/census/surface.md; then
  grep -E 'no caller (sets it|outside the tests)' target/census/surface.md >&2
  exit 1
fi

stage "cargo build --release"
cargo build --release "${CARGO_FLAGS[@]}" --workspace

# The workspace's default members are every member, so this is the one
# test bar: the same run as tier-1's `cargo test -q`. Its passed count is
# the figure EXPERIMENTS.md quotes.
stage "cargo test"
cargo test -q "${CARGO_FLAGS[@]}" 2>&1 | tee target/cargo-test.log
awk '$1 == "test" && $2 == "result:" { for (i = 3; i < NF; i++) if ($(i + 1) ~ /^passed/) n += $i }
  END { print n " tests passed" }' target/cargo-test.log

# Wall-clock complexity gates (a 32x population must not show in the cost
# of one document's write or invalidation, nor 1024x that document's own
# holders when none registered for `ContentWritten` in the cost of its
# write, nor 128x the live records in the cost of a journal ack; a
# flush-shaped journal run writes under 3 bytes per user byte). The three
# `independent_of` tests of `tests/cache_manager.rs` are the population
# gates. The test run above has them in a debug build
# beside every other test binary; timing is only dependable optimized and
# alone. The three hit-path tests ride along, so that they hold in the
# build the benchmark measures: two hits of one shard overlap inside their
# verifiers; a verdict reached under the shared shard lock is applied under
# the exclusive one without running the verifiers again; and a hit returns
# while another reader is parked in its verifier on the same shard, under
# the default policy and under a caller's (`PolicyFactory::new`) alike.
# Beside them, what a flush costs the origin: with the writer's rendition
# resident and attested, a `write_op` and its flush read no chain.
# The lost-wake-up exploration rides along: a flight wakes only the
# waiters it counted, and its seeded schedules fail a run in which a waiter
# went uncounted, naming the seed, in the build the benchmark measures.
stage "population independence + shared hit path + flush cost (release)"
cargo test -q --release "${CARGO_FLAGS[@]}" --test cache_manager -- independent_of hit_path \
  flush_cost
cargo test -q --release "${CARGO_FLAGS[@]}" --test singleflight -- loses_no_wake_up
cargo test -q --release "${CARGO_FLAGS[@]}" --test journal

# The count gate of the staged walk: a seeded replay at half-corpus
# capacity in which no read may execute a stage that a resident output made
# unnecessary, no eviction may drop a stage name over held content, and —
# against the parent commit, where every signed output was named and every
# alias admitted — stage executions and origin fetches per read are no
# higher and evictions per read at most half. Counts, not time, so it would
# hold in the debug run above too; it runs here in the build the benchmark
# measures, and alone. Beside it, what a full cache hashes: outputs filed
# under their stage names, re-filed by the first alias admitted, an output
# equal to its input holding one store key with it, and every resident
# version filed by its MD5 — where release builds skip the debug re-hash.
stage "staged walk under churn (release)"
cargo test -q --release "${CARGO_FLAGS[@]}" --test stage_pipeline -- \
  churn_replay under_pressure resident_versions_are_filed_by_their_md5

# What a stage of the benchmark's chain costs, in MD5 passes over the same
# 4 KiB (best of many rounds, so it holds on any box), each round on the
# next of 256 distinct documents, so that no branch predictor learns one:
# unscrambling at most half a pass, translating at most 1.8, the per-user
# `replace` at most 0.65. Sorted per-length buckets and `str::replace`
# cost 2.5 and 0.75–0.8 there. In the same rounds the kernels' UTF-8 check
# costs at most a quarter of `String::from_utf8_lossy`'s byte-wise walk, a
# ratio host load does not move. The test is ignored in debug builds. The
# proptests holding the direct-mapped word table to a lowercase map and
# the `replace` finder to `str::replace` run beside it, so the build that
# is timed is also the one checked.
stage "stage kernels against an MD5 pass (release)"
cargo test -q --release "${CARGO_FLAGS[@]}" --test kernels -- relative_to_md5 \
  direct_mapped_table replace_and_redact

# The one oracle: the sequential reference beside the real cache at one
# shard (twice, to compare the two runs' books) and at four, faults and
# time included. The release build runs eight times tier-1's cases (the
# test reads `cfg!(debug_assertions)`), in about seven seconds.
stage "model against the sequential reference (release, 8x cases)"
cargo test -q --release "${CARGO_FLAGS[@]}" --test model

# Every crash state of the journaled write path (E-CRASH's enumeration):
# tier-1 runs it at 48 writes in the debug build, this stage at 240
# optimized (the tests read `cfg!(debug_assertions)`), in a few seconds.
stage "crash states of the journaled write path (release, 240 writes)"
cargo test -q --release "${CARGO_FLAGS[@]}" -p placeless-bench --lib -- crash::tests

# The experiments binary writes BENCH_*.json next to its working
# directory. The smokes below run reduced parameters, so they run from
# target/smoke/ and leave the committed full-size files in the repo root
# alone.
ROOT="$PWD"
mkdir -p target/smoke
smoke() {
  (cd "$ROOT/target/smoke" && cargo run -q --release "${CARGO_FLAGS[@]}" \
    --manifest-path "$ROOT/Cargo.toml" -p placeless-bench --bin experiments -- "$@")
}

stage "E-FAULT smoke (availability table under a scripted outage)"
smoke fault

stage "E-STAGE smoke (staged-plan partial hits + lease >=2x gate," \
  "zero-copy probe, 4 MiB big-doc smoke)"
smoke stage

stage "E-CRASH smoke (write-journal durability)"
smoke crash

stage "E-MERGE smoke (op-based multi-writer merge)"
smoke merge

stage "E-LOAD smoke (coalesce probe + write mix)"
E_LOAD_WMIX_WRITES=800 E_LOAD_WMIX_DOCS=48 E_LOAD_WMIX_FLUSH_EVERY=400 \
  smoke load

stage "E-OVERLOAD smoke (deadline admission + brownout under a 10x burst)"
smoke overload | tee target/smoke/overload.out
tail -n +3 target/smoke/BENCH_overload.json >target/smoke/overload.body

# Its threads run under a seeded scheduler on the virtual clock, so a
# second run prints the same bytes and writes the same artifact body (the
# `env` line above it names the build).
stage "E-OVERLOAD replays byte for byte"
smoke overload | cmp target/smoke/overload.out -
tail -n +3 target/smoke/BENCH_overload.json | cmp target/smoke/overload.body -

# The benchmark package is frozen outside benchmark PRs; these two steps
# prove it still builds and runs against the current placeless-cache API.
stage "repo benchmark: unit tests + smoke"
cargo test -q --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke

# The model harness reports counts and virtual-clock times only, through
# one writer: it neither reads nor waits out the wall clock.
stage "model harness: no wall-clock reads, one artifact writer"
if grep -rnE '\.elapsed\(\)|thread::sleep|Instant::now' crates/bench/src ||
  grep -rn 'fs::write' crates/bench/src/bin; then
  echo "crates/bench must not time or sleep on the wall clock, or write artifacts outside report.rs" >&2
  exit 1
fi

stage "cargo clippy (-D warnings)"
cargo clippy "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings

stage "cargo doc (placeless-cache: broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
  cargo doc "${CARGO_FLAGS[@]}" --no-deps -p placeless-cache

# The numbers simplicity PRs quote: non-test lines, each file cut at its
# test module (a `#[cfg(test)]` over an inline `mod`), and the files a
# `#[cfg(test)] mod name;` declares left out. For all of crates/cache/src
# (policy/ and manager/ included) and for the per-origin file set (origin
# health, flights and the manager files that call them), beside the one
# core file the cache's write path runs through, the model harness, and
# the three places the property chain's transforms live (stream adapters,
# the standard properties, PropLang), and the four places the staged
# walk's admission rules live (the walk, the entry table, the policies,
# the compiled plan).
non_test_lines() {
  awk '
    FNR == 1 {
      file = FILENAME; stem = file; sub(/\.rs$/, "", stem); dir = file; sub(/[^\/]*$/, "", dir)
      # `lib.rs`, `main.rs` and `mod.rs` declare their modules beside
      # them, any other `foo.rs` under `foo/`.
      children = stem ~ /(^|\/)(lib|main|mod)$/ ? dir : stem "/"
    }
    test_attr && /^(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/ {
      name = $0; sub(/^.*mod /, "", name); sub(/;.*/, "", name)
      skip[children name ".rs"] = skip[children name "/mod.rs"] = 1
      lines[file]--; test_attr = 0; next
    }
    test_attr && /^mod [a-z_0-9]+ \{/ { lines[file]--; test_attr = 0; nextfile }
    { test_attr = /^#\[cfg\(test\)\]/; lines[file]++ }
    END { for (f in lines) if (!(f in skip)) sum += lines[f]; print sum + 0 }' "$@"
}
stage "non-test lines"
# Every crate and the workspace (crates/*/src and src/) before and after
# the change: at BASE_REV (by default the last commit when the working tree
# changes crates/ or src/, the one before it otherwise) and in the working
# tree, both through the counter above.
base=${BASE_REV:-$(git diff --quiet HEAD -- crates src && echo HEAD~1 || echo HEAD)}
rm -rf target/lines && mkdir -p target/lines/base
if git rev-parse -q --verify "$base^{commit}" >/dev/null; then
  git archive "$base" crates src | tar -x -C target/lines/base
fi
lines_in() {
  local files
  files=$(find "$@" -name '*.rs' 2>/dev/null | sort)
  if [[ -n $files ]]; then non_test_lines $files; else echo 0; fi
}
for dir in crates/*/src src; do
  before=$(cd target/lines/base && lines_in "$dir") now=$(lines_in "$dir")
  echo "$dir: $before at $base, $now now ($(printf '%+d' $((now - before))))"
done
before=$(cd target/lines/base && lines_in crates/*/src src) now=$(lines_in crates/*/src src)
echo "workspace (crates/*/src + src): $before at $base, $now now ($(printf '%+d' $((now - before))))"
# The test suite's size, which the parity deletions are held to shrink:
# every line under tests/, at the same kind of base (HEAD while the tree
# changes tests/, else HEAD~1).
tbase=${BASE_REV:-$(git diff --quiet HEAD -- tests && echo HEAD~1 || echo HEAD)}
tests_now=$(find tests -name '*.rs' -exec cat {} + | wc -l)
if git rev-parse -q --verify "$tbase^{commit}" >/dev/null; then
  tests_before=$(for f in $(git ls-tree -r --name-only "$tbase" -- tests | grep '\.rs$'); do
    git show "$tbase:$f"
  done | wc -l)
  echo "tests/: $tests_before at $tbase, $tests_now now ($(printf '%+d' $((tests_now - tests_before))))"
else
  echo "tests/: $tests_now ($tbase not in this clone)"
fi
echo "crates/cache/src/stats.rs: $(non_test_lines crates/cache/src/stats.rs)"
# A hit tells the policy through `&`; a mutex around it would put every hit
# of a shard back on one lock word.
if grep -n 'policy: Mutex' crates/cache/src/shard.rs; then
  echo "shard.rs: the policy is a plain field, not behind a mutex" >&2
  exit 1
fi
# Per-key state (dirty writes, parked marks, writer sequences, plan leases)
# lives in the shard that owns the key, under the lock it already takes.
if grep -nE '^\s+\w+: Mutex<Hash(Map|Set)' crates/cache/src/manager/mod.rs; then
  echo "manager/mod.rs: per-key state belongs to the shard, not a global map" >&2
  exit 1
fi
# A thread makes a futex call only when another is doing work it needs:
# the cache wakes sleepers in two places (a flight's waiters, a window's
# queued readers), each inside an `if` on its waiter count.
echo "vendor/parking_lot/src/lib.rs: $(non_test_lines vendor/parking_lot/src/lib.rs)"
echo "crates/cache/src/singleflight.rs: $(non_test_lines crates/cache/src/singleflight.rs)"
wakes=$(for f in $(find crates/cache/src -name '*.rs'); do
  awk '/^#\[cfg\(test\)\]/{exit} /\.notify_all\(\)/{print FILENAME ":" FNR ": " $0}' "$f"
done)
if [[ $(grep -c . <<<"$wakes") != 2 ]]; then
  echo "crates/cache/src: expected exactly two notify_all calls (singleflight.rs, origin.rs):" >&2
  echo "$wakes" >&2
  exit 1
fi
(cd crates/cache/src && echo "per-origin file set: $(non_test_lines \
  origin.rs singleflight.rs manager/{read,flush,mod}.rs)")
echo "walk + table + policies + plan: $(non_test_lines crates/cache/src/manager/stages.rs \
  crates/cache/src/shard.rs crates/cache/src/policy/*.rs crates/core/src/plan.rs)"
echo "crates/core/src/plan.rs: $(non_test_lines crates/core/src/plan.rs)"
echo "crates/core/src/space.rs: $(non_test_lines crates/core/src/space.rs)"
echo "crates/bench/src: $(non_test_lines $(find crates/bench/src -name '*.rs'))"
echo "crates/core/src/streams.rs: $(non_test_lines crates/core/src/streams.rs)"
echo "crates/properties/src: $(non_test_lines $(find crates/properties/src -name '*.rs'))"
echo "crates/proplang/src: $(non_test_lines $(find crates/proplang/src -name '*.rs'))"

if [[ -n "${STAGE_OPEN:-}" ]]; then
  echo "::endgroup::"
fi
echo "==> all checks passed"
