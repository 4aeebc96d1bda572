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

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release "${CARGO_FLAGS[@]}" --workspace

echo "==> cargo test"
cargo test -q "${CARGO_FLAGS[@]}" --workspace

echo "==> fault matrix (resilience + fault-injection suite)"
cargo test -q "${CARGO_FLAGS[@]}" --test fault_matrix

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

echo "==> E-FAULT smoke (availability table under a scripted outage)"
smoke fault

echo "==> E-STAGE smoke (staged-plan partial hits + lease >=2x gate,"
echo "    zero-copy probe, 4 MiB big-doc smoke)"
smoke stage

echo "==> E-CRASH smoke (write-journal durability)"
smoke crash

echo "==> E-MERGE smoke (op-based multi-writer merge)"
smoke merge

echo "==> E-LOAD smoke (trace-driven load + coalesce probe + write mix)"
E_LOAD_USERS=20000 E_LOAD_OPS=4000 E_LOAD_THREADS=4 \
  E_LOAD_WMIX_WRITES=800 E_LOAD_WMIX_DOCS=48 E_LOAD_WMIX_FLUSH_EVERY=400 \
  smoke load

echo "==> E-OVERLOAD smoke (deadline admission + brownout under a 10x burst)"
E_OVERLOAD_EVENTS=300 E_OVERLOAD_THREADS=4 E_OVERLOAD_WALL_MICROS=150 \
  smoke overload

# The benchmark package is frozen outside benchmark PRs; these two steps
# prove it still builds and runs against the current placeless-cache API.
echo "==> repo benchmark: unit tests + smoke"
cargo test -q --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke

echo "==> cargo clippy (-D warnings)"
cargo clippy "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings

echo "==> cargo doc (placeless-cache: broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
  cargo doc "${CARGO_FLAGS[@]}" --no-deps -p placeless-cache

# The number simplicity PRs quote: lines of crates/cache/src above each
# file's `#[cfg(test)]`, policy/ and manager/ included.
echo "==> non-test lines in crates/cache/src"
for f in $(find crates/cache/src -name '*.rs'); do
  awk '/^#\[cfg\(test\)\]/{exit} {c++} END{print c+0}' "$f"
done | awk '{s+=$1} END{print s}'

echo "==> all checks passed"
