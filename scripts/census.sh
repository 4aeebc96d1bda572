#!/usr/bin/env bash
# What the runs reach, and what nothing outside the tests uses.
#
#   scripts/census.sh            # both halves (builds a copy; a few minutes)
#   scripts/census.sh --surface  # the surface half only (about 20 s warm)
#   OFFLINE=1 scripts/census.sh  # pass --offline to every cargo call
#
# The runtime half copies the tree to target/census/tree, appends a `Drop`
# for `DocumentCache` to the copy that writes the cache's `CacheStats`, and
# runs every experiment at full size, `benchmark/run.sh --smoke` and every
# example there. It prints each `CacheStats` field with the runs that moved
# it. The committed tree gets no hook: everything happens in the copy.
#
# The surface half prints each public field of the option structs with the
# callers outside `tests/`, test modules and the cache crate, and the
# distinct values those callers set (by name: a same-named field of another
# type counts too). It fails when an option field has no such use — no
# setter call, no struct-literal field, no constructor argument — unless
# `ALLOWED` below names it with its reason.
#
# Beside it the compiler's census prints every function of the workspace
# crates with no caller outside the tests, type-exact. On two mirrors of
# the tree under target/census/surface/ (each with a build directory of its
# own, which stays warm between runs) it checks every non-test target: the
# workspace's libs, bins and examples, and the benchmark package.
#  1. In the first mirror every `pub fn` is `#[deprecated]`, with a note
#     naming its definition; each use the compiler resolves from another
#     crate names a function that stays public.
#  2. In the second every other `pub fn` is `pub(crate)`. Each that rustc
#     names as private or re-exported (E0624, E0603, E0364) goes back to
#     `pub`, and the targets are checked again until they build.
#  3. What `dead_code` then reports has no caller outside the tests, and
#     neither has a re-exported function that no non-test code calls.
# A function whose only callers are themselves dead stays public until
# those callers go: run it again after deleting. The surface half fails
# on a row `ALLOWED` does not name with its test and its reason.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$PWD"

CARGO_FLAGS=()
if [[ "${OFFLINE:-0}" == "1" ]]; then
  CARGO_FLAGS+=(--offline)
fi

# Option fields no caller outside the tests has to set, and functions no
# caller outside the tests calls, each with why it stays: an option field
# `Struct.field: reason`, a function `crate::Type::name: test — reason`.
ALLOWED=(
  "MergePolicy.on_unmergeable: the benchmark's re-cut deletes recover's hook instead (ROADMAP item 3)"
  # The builder goes whole once the benchmark stops calling it (ROADMAP
  # item 3); until then these setters stay beside the struct's fields.
  "cache::CacheConfigBuilder::prefetch: tests/fault_matrix.rs::prefetch_skips_siblings_behind_an_open_breaker — builder setter; item 3 deletes the builder"
  "cache::CacheConfigBuilder::run_verifiers: tests/cache_manager.rs::verifiers_run_once_per_read — builder setter; item 3 deletes the builder"
  "cache::MergePolicy::on_unmergeable: tests/fault_matrix.rs::parked_write_dropped_by_keep_theirs_leaves_the_parked_gauge — item 3 routes recover's hook through it"
  # What the tests read to check the cache's books and its fault handling.
  "cache::DocumentCache::recount: tests/model.rs — the oracle's recount of every entry"
  "cache::ShardGuard::recount: tests/model.rs — the shard half of DocumentCache::recount"
  "cache::DocumentCache::parked_count: tests/fault_matrix.rs::parked_drain_run — the parked gauge's exact count"
  "cache::DocumentCache::inflight_fetches: tests/singleflight.rs::a_cold_stampede_loses_no_wake_up — no slot leaks"
  "cache::Origins::running: tests/overload.rs::unwinding_fetch_frees_its_window_slot — behind inflight_fetches"
  "cache::DocumentCache::queued_fetches: tests/overload.rs::controlled_window_never_exceeds_its_width — the window's queue"
  "cache::DocumentCache::breaker_state: tests/fault_matrix.rs::breaker_opens_half_opens_and_recovers — breaker transitions"
  "cache::Origins::breaker_state: tests/fault_matrix.rs::breaker_opens_half_opens_and_recovers — behind DocumentCache::breaker_state"
  "cache::DocumentCache::journal: tests/fault_matrix.rs::batched_flush_straddling_outage_parks_only_failed_entries — the journal's live records"
  "cache::DocumentCache::shard_count: tests/cache_manager.rs::zero_shards_means_auto — the shard count a config resolves to"
  "cache::ShardTable::shard_count: tests/cache_manager.rs::zero_shards_means_auto — behind DocumentCache::shard_count"
  "cache::DocumentCache::is_empty: clippy::len_without_is_empty — pairs the runs' DocumentCache::len"
  "cache::GreedyDual::inflation: tests/policy.rs::inflation_is_monotone — Greedy-Dual's L, the paper's aging"
  "cache::WriteJournal::len: tests/journal.rs — live records after acks and compaction"
  "cache::WriteJournal::is_empty: tests/journal.rs — pairs WriteJournal::len (clippy::len_without_is_empty)"
  "cache::WriteJournal::store: tests/cache_manager.rs::journal_records_writes_and_flush_acks_prune_it — reopens the medium"
  "core::InvalidationBus::drop_next_deliveries: tests/model.rs::the_cache_agrees_with_the_reference — the DropNext op"
  "core::ReplacementCost::raw_micros: tests/kernels.rs — the cost before QoS inflation"
  "core::TransformPlan::is_empty: clippy::len_without_is_empty — pairs the walk's TransformPlan::len"
  "core::format_profile: tests/prop_core.rs::profile_format_parse_round_trips — generates the parser's inputs"
  "core::QosProperty::always_available: tests/collections_qos.rs::pinned_entries_survive_any_eviction_pressure — the paper's pin; no experiment attaches it yet"
  "core::DocumentSpace::delete_document: tests/lifecycle.rs::delete_document_purges_every_cache — deletion invalidates"
  "core::Inner::delete_document: tests/lifecycle.rs::delete_document_purges_every_cache — behind DocumentSpace::delete_document"
  "core::Collections::remove: tests/lifecycle.rs::delete_document_purges_every_cache — behind DocumentSpace::delete_document"
  "core::DocumentSpace::remove_reference: tests/lifecycle.rs::remove_reference_purges_only_that_user — dropping a reference invalidates"
  "core::Inner::remove_reference: tests/lifecycle.rs::remove_reference_purges_only_that_user — behind DocumentSpace::remove_reference"
  "nfs::DirectBackend::new: tests/prop_nfs.rs::nfs_matches_reference_model — the uncached NFS backend"
  "nfs::NfsServer::getattr: tests/figure2_paths.rs::nfs_save_traverses_the_same_path — file attributes"
  "nfs::NfsServer::open_count: tests/failure_injection.rs::nfs_failures_release_handles — no handle leaks"
  "properties::Versioning::versions: crates/nfs/src/editor.rs::figure2_save_runs_write_path_properties — Figure 2's versions"
  "repository::Dms::fetch_version: tests/prop_repository.rs::dms_versions_are_append_only — the DMS history"
  "repository::MailStore::fetch: tests/prop_repository.rs::mailstore_digest_reflects_every_delivery — delivery order"
  "repository::MemFs::list: tests/prop_repository.rs::memfs_matches_reference_model — the model's view of the files"
  "repository::MemFs::unlink: tests/prop_repository.rs::memfs_matches_reference_model — an op of the model"
  "repository::TravelBoard::update: tests/fault_matrix.rs — an external change, the fourth invalidation cause"
  "repository::WebServer::counters: tests/fault_matrix.rs — requests the origin served"
  "simenv::FaultPlan::counters: tests/fault_matrix.rs — faults the plan injected"
  "simenv::FaultPlan::drop_next: crates/repository/src/providers.rs::drop_next_fails_writes_too — fault hook"
  "simenv::FaultPlan::set_partitioned: crates/repository/src/providers.rs::faulted_probe_is_unverifiable_not_invalid — fault hook"
  "simenv::FaultPlanBuilder::retry_hint: tests/fault_matrix.rs::retry_after_hint_floors_the_backoff — fault hook"
  "simenv::FaultPlanBuilder::timeout: tests/fault_matrix.rs::timeout_during_revalidation_charges_and_surfaces — fault hook"
  "simenv::SimRng::next_range: tests/overload.rs::shed_decision_trace — draws the test's deadlines"
  "simenv::StableStore::append_count: tests/journal.rs::ack_batch_appends_one_frame_and_skips_superseded_records — frames per ack"
  "simenv::StableStore::bytes_written: tests/journal.rs::flush_shaped_run_writes_under_three_bytes_per_user_byte — write amplification"
  "simenv::StableStore::is_empty: tests/journal.rs — pairs StableStore::len (clippy::len_without_is_empty)"
  "simenv::TraceSampler::documents: tests/shard_stress.rs — sizes the trace's document set"
)
OPTION_STRUCTS=(CacheConfig OriginConfig WindowConfig OverloadControl ReadOptions MergePolicy
  PrefetchConfig)
# Constructors that set a field from their argument.
CONSTRUCTORS=("WindowConfig::new=width" "PrefetchConfig::up_to=max_per_miss")

# Non-test code, one `file:line:text` per line: every crate, the facade,
# the examples and the benchmark, each file cut at its test module.
callers() {
  find crates src examples benchmark/src -name '*.rs' -not -path '*/target/*' -print0 |
    xargs -0 awk '/^#\[cfg\(test\)\]/{nextfile} {print FILENAME ":" FNR ":" $0}'
}

# The public fields of struct `$1`, from its definition in the cache crate.
fields_of() {
  local file
  file=$(grep -rl "^pub struct $1 {" crates/cache/src)
  awk -v s="pub struct $1 {" 'index($0, s) == 1 {on = 1; next}
    on && /^}/ {exit}
    on && match($0, /^    pub [a-z_0-9]+:/) {print substr($0, RSTART + 8, RLENGTH - 9)}' "$file"
}

# Prints `uses<TAB>values` for option field `$2` of struct `$1` in the
# caller lines on stdin: setter calls `.f(v)`, assignments `.f = v`,
# struct-literal fields `f: v`, and constructor arguments.
field_uses() {
  local ctor="" entry
  for entry in "${CONSTRUCTORS[@]}"; do
    [[ ${entry%%=*} == "$1::"* && ${entry#*=} == "$2" ]] && ctor=${entry%%=*}
  done
  awk -v f="$2" -v ctor="$ctor" '
    # The argument list opening at index `at` of `line`, to its match.
    function args(at,    depth, i, c) {
      depth = 0
      for (i = at; i <= length(line); i++) {
        c = substr(line, i, 1)
        if (c == "(") depth++
        if (c == ")" && --depth == 0) return substr(line, at + 1, i - at - 1)
      }
      return substr(line, at + 1)
    }
    function use(v) { sub(/^ +/, "", v); sub(/[ ,;]+$/, "", v); vals[v] = 1; n++ }
    {
      line = $0; sub(/^[^:]*:[0-9]+:/, "", line)
      if (line ~ /^ *(\/\/|\*)/) next
      if (match(line, "\\." f "\\(")) { use(args(RSTART + RLENGTH - 1)); next }
      if (ctor != "" && match(line, ctor "\\(")) { use(args(RSTART + RLENGTH - 1)); next }
      if (match(line, "\\." f " = [^;]*")) { use(substr(line, RSTART + length(f) + 4, RLENGTH)); next }
      # A struct-literal field, unless its value is a type (a field
      # declaration of some other struct).
      if (line !~ /(^| )(fn|pub|let) / && match(line, "(^|[ {(])" f ": [^,}]*")) {
        v = substr(line, RSTART, RLENGTH); sub("^.?" f ": ", "", v)
        if (v !~ /^(bool|u[0-9]+|usize|f64|String|Option<.*|Vec<.*)$/) use(v)
      }
    }
    END {
      out = ""
      for (v in vals) out = out (out == "" ? "" : " | ") v
      printf "%d\t%s\n", n, out
    }'
}

SURFACE=target/census/surface
# A public function's definition line, `pub` and its qualifiers apart.
PUB_FN='^(\s*)pub ((?:const |async |unsafe )*fn )'

# Mirrors the tree into $1, passing every crate source, the facade's and
# the examples' through the perl program $2 (`$ENV{FILE}` names the file),
# and rewrites only the files whose bytes differ, so that cargo's
# fingerprints of untouched crates stay fresh between runs.
mirror() {
  local dest=$1 program=$2 file staged=$SURFACE/staged.rs
  git ls-files -co --exclude-standard | sort >"$SURFACE/files.txt"
  while IFS= read -r file; do
    [[ -f $file ]] || continue
    if [[ $file =~ ^(crates/[^/]+/src|src|examples)/.*\.rs$ ]]; then
      FILE=$file perl -pe "$program" "$file" >"$staged"
    else
      cp "$file" "$staged"
    fi
    if ! cmp -s "$staged" "$dest/$file"; then
      mkdir -p "$dest/$(dirname "$file")" && cp "$staged" "$dest/$file"
    fi
  done <"$SURFACE/files.txt"
  # A file deleted from the tree leaves the mirror too (cargo discovers
  # examples and bins by directory listing).
  (cd "$dest" && find . -path ./target -prune -o -type f -print | sed 's|^\./||' | sort) |
    comm -23 - "$SURFACE/files.txt" | (cd "$dest" && xargs -r rm -f)
}

# Checks every non-test target of mirror $1 — the workspace's libs, bins
# and examples, and the benchmark package — into a target directory of
# its own with RUSTFLAGS $2, printing cargo's JSON messages.
check_targets() {
  local tree=$1
  : >"$ROOT/$tree.log"
  export CARGO_TARGET_DIR="$ROOT/$tree.build" RUSTFLAGS=$2
  (cd "$tree" && cargo check -q --keep-going --message-format=json "${CARGO_FLAGS[@]}" \
    --workspace --lib --bins --examples 2>>"$ROOT/$tree.log" || true)
  (cd "$tree" && cargo check -q --keep-going --message-format=json "${CARGO_FLAGS[@]}" \
    --manifest-path benchmark/Cargo.toml --bins 2>>"$ROOT/$tree.log" || true)
  unset CARGO_TARGET_DIR RUSTFLAGS
}

# The crate a source path belongs to: a bin, an example, the benchmark, a
# library crate or the facade.
OWNER='function owner(p) {
    sub(/^.*\/target\/census\/surface\/[a-z]+\//, "", p); sub(/^\.\.\//, "", p)
    if (match(p, /^crates\/[^\/]+\/src\/bin\/[^\/.]+/) || match(p, /^examples\/[^\/.]+/)) return substr(p, 1, RLENGTH)
    if (match(p, /^(benchmark|crates\/[^\/]+)\//)) return substr(p, 1, RLENGTH - 1)
    return "src"
  }'

compiler() {
  mkdir -p "$SURFACE/used" "$SURFACE/dead"
  # Every public function, `file:line<TAB>name`.
  git ls-files -co --exclude-standard -- 'crates/*/src/*.rs' 'src/*.rs' 'examples/*.rs' |
    xargs grep -nP "$PUB_FN"'[a-z_0-9]+' |
    sed -E 's/^([^:]+:[0-9]+):.*fn ([a-z_0-9]+).*/\1\t\2/' | sort -u >"$SURFACE/defs.tsv"
  # Round one: every public function deprecated, its note naming its
  # definition, so each use the compiler resolves outside the defining
  # crate names what must stay public.
  mirror "$SURFACE/used" 'if (/'"$PUB_FN"'/ && $prev !~ /#\[deprecated/) {
      s//$1#[deprecated(note = "census:$ENV{FILE}:$.")] pub $2/ } $prev = $_;'
  check_targets "$SURFACE/used" "--force-warn deprecated" >"$SURFACE/used.json"
  # Each use, `definition<TAB>the using target's root file`; an import
  # names a function, it calls nothing.
  jq -r 'select(.reason == "compiler-message" and .message.code.code == "deprecated")
      | (.message.message | capture("census:(?<at>[^ ]+)$").at) as $at
      | (.message.spans[] | select(.is_primary) | .text[0].text) as $line
      | select($line | test("^\\s*(pub(\\([a-z]+\\))? )?use ") | not)
      | [$at, .target.src_path] | @tsv' "$SURFACE/used.json" | sort -u >"$SURFACE/uses.tsv"
  cut -f1 "$SURFACE/uses.tsv" | sort -u >"$SURFACE/called.txt"
  awk -F'\t' "$OWNER"' { def = $1; sub(/:[0-9]+$/, "", def); if (owner(def) != owner($2)) print $1 }' \
    "$SURFACE/uses.tsv" | sort -u >"$SURFACE/keep.txt"
  : >"$SURFACE/reexported.txt"
  # Round two on: every other public function demoted to `pub(crate)`;
  # each that rustc then names as private or re-exported goes back to
  # `pub`, until the targets build.
  local round errors
  export KEEP=$SURFACE/keep.txt
  for round in 1 2 3 4 5 6 7 8; do
    mirror "$SURFACE/dead" 'BEGIN { open my $k, "<", $ENV{KEEP}; %keep = map { chomp; ($_ => 1) } <$k> }
      s/'"$PUB_FN"'/$1pub(crate) $2/ unless $keep{"$ENV{FILE}:$."};'
    check_targets "$SURFACE/dead" "--force-warn dead_code" >"$SURFACE/dead.json"
    errors=$(jq -r 'select(.reason == "compiler-message" and .message.level == "error")
        | .message.code.code // "-"' "$SURFACE/dead.json" | sort | uniq -c | tr '\n' ' ')
    [[ -z $errors ]] && break
    echo "round $round: $errors" >&2
    cp "$SURFACE/keep.txt" "$SURFACE/keep.before"
    # A private function names its definition; a re-export names only
    # itself, so its function is found by name in the crate.
    jq -r 'select(.reason == "compiler-message" and (.message.code.code | IN("E0624", "E0603")))
        | .message | .. | objects | select(has("line_start")) | "\(.file_name):\(.line_start)"' \
      "$SURFACE/dead.json" | sed -E 's|^.*/target/census/surface/[a-z]+/||' >"$SURFACE/promote.txt"
    jq -r 'select(.reason == "compiler-message" and .message.code.code == "E0364") | .message
        | [(.message | capture("`(?<n>[^`]+)`").n), .spans[0].file_name] | @tsv' "$SURFACE/dead.json" |
      awk -F'\t' "$OWNER"' NR == FNR { want[owner($2) "\t" $1] = 1; next }
        { def = $1; sub(/:[0-9]+$/, "", def) } (owner(def) "\t" $2) in want { print $1 }' \
        - "$SURFACE/defs.tsv" | tee -a "$SURFACE/reexported.txt" >>"$SURFACE/promote.txt"
    sort -u "$SURFACE/promote.txt" "$SURFACE/keep.before" >"$SURFACE/keep.txt"
    if cmp -s "$SURFACE/keep.txt" "$SURFACE/keep.before"; then
      jq -r 'select(.reason == "compiler-message" and .message.level == "error") | .message.rendered' \
        "$SURFACE/dead.json" >&2
      return 2
    fi
  done
  if [[ -n $errors ]]; then
    echo "the mirror still fails to build after $round rounds" >&2
    return 2
  fi
  # One row per item, `crate::Type::name<TAB>file:line`: what dead_code
  # reports, and each re-exported function nothing calls.
  {
    jq -r 'select(.reason == "compiler-message" and .message.code.code == "dead_code") | .message
        | (.spans | map(select(.is_primary | not)) | .[0].text[0].text // "") as $owner
        | .spans[] | select(.is_primary)
        | [.file_name, .line_start, (.text[0].text[.text[0].highlight_start - 1:.text[0].highlight_end - 1]),
           $owner] | @tsv' "$SURFACE/dead.json"
    sort -u "$SURFACE/reexported.txt" | comm -23 - "$SURFACE/called.txt" |
      awk -F'\t' 'NR == FNR { name[$1] = $2; next } { split($0, at, ":"); print at[1] "\t" at[2] "\t" name[$0] "\t" }' \
        "$SURFACE/defs.tsv" -
  } | awk -F'\t' "$OWNER"' {
      file = $1; sub(/^.*\/target\/census\/surface\/[a-z]+\//, "", file)
      crate = owner(file); sub(/^crates\//, "", crate); sub(/^src$/, "placeless", crate)
      # The type an item belongs to: the `impl` or `struct` line beside
      # it, generic parameters (nested `<>` too) dropped.
      type = $4; while (gsub(/<[^<>]*>/, "", type)) {}
      if (match(type, /^ *(pub )?(impl |struct |enum )[A-Za-z_0-9$]+/)) {
        type = substr(type, RSTART, RLENGTH); sub(/^.* /, "", type)
      } else type = ""
      sep = $4 ~ /struct / ? "." : "::"
      print crate "::" (type == "" ? "" : type sep) $3 "\t" file ":" $2
    }' | sort -u
}

surface() {
  local callers_file=target/census/callers.txt outside=target/census/outside.txt failed=0
  mkdir -p target/census
  callers >"$callers_file"
  grep -v '^crates/cache/' "$callers_file" >"$outside"
  echo "### Option fields: uses outside tests and the cache crate"
  echo
  echo "| field | uses | values set |"
  echo "|---|---:|---|"
  local s f uses values allowed
  for s in "${OPTION_STRUCTS[@]}"; do
    for f in $(fields_of "$s"); do
      IFS=$'\t' read -r uses values < <(field_uses "$s" "$f" <"$outside")
      allowed=$(printf '%s\n' "${ALLOWED[@]}" | grep "^$s\.$f: " || true)
      if (( uses == 0 )) && [[ -z $allowed ]]; then
        values="**no caller sets it**"
        failed=1
      elif (( uses == 0 )); then
        values="allowed: ${allowed#*: }"
      fi
      echo "| \`$s.$f\` | $uses | ${values:0:90} |"
    done
  done
  echo
  echo "### Functions with no caller outside the tests (compiler)"
  echo
  local rows
  rows=$(compiler) || return 2
  echo "$(wc -l <"$SURFACE/defs.tsv") public functions, $(wc -l <"$SURFACE/keep.txt") called from" \
    "another crate's non-test targets."
  echo
  echo "| item | definition | kept because |"
  echo "|---|---|---|"
  local key at kept
  while IFS=$'\t' read -r key at; do
    [[ -n $key ]] || continue
    kept=$(printf '%s\n' "${ALLOWED[@]}" | awk -v key="$key: " 'index($0, key) == 1 && / — /')
    if [[ -z $kept ]]; then
      kept="**no caller outside the tests**"
      failed=1
    else
      kept=${kept#*: }
    fi
    echo "| \`$key\` | $at | $kept |"
  done <<<"$rows"
  echo
  return $failed
}

runtime() {
  local copy=target/census/tree out=target/census/stats.tsv
  rm -rf "$copy" && mkdir -p "$copy" target/census/run
  git ls-files -co --exclude-standard | while IFS= read -r file; do
    [[ -e $file ]] && printf '%s\0' "$file"
  done | xargs -0 cp --parents -t "$copy"
  cat >>"$copy/crates/cache/src/manager/mod.rs" <<'EOF'

impl Drop for DocumentCache {
    fn drop(&mut self) {
        use std::io::Write;
        let (Ok(path), Ok(run)) = (std::env::var("CENSUS_OUT"), std::env::var("CENSUS_RUN")) else {
            return;
        };
        let line = format!("{run}\t{:?}\n", self.stats());
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path);
        let _ = file.and_then(|mut file| file.write_all(line.as_bytes()));
    }
}
EOF
  export CARGO_TARGET_DIR="$ROOT/target/census/build" CENSUS_OUT="$ROOT/$out"
  rm -f "$out"
  (cd "$copy" && cargo build -q --release "${CARGO_FLAGS[@]}" -p placeless-bench --bin experiments \
    --examples -p placeless)
  local names name
  names=$("$CARGO_TARGET_DIR/release/experiments" census-list 2>&1 | sed 's/.*known: //; s/,//g' || true)
  for name in $names; do
    (cd target/census/run && CENSUS_RUN="$name" "$CARGO_TARGET_DIR/release/experiments" "$name" \
      >/dev/null)
  done
  (cd "$copy" && CENSUS_RUN="benchmark --smoke" bash benchmark/run.sh --smoke >/dev/null)
  for name in $(cd "$copy/examples" && ls *.rs | sed 's/\.rs$//'); do
    CENSUS_RUN="example $name" "$CARGO_TARGET_DIR/release/examples/$name" </dev/null >/dev/null
  done
  echo "### CacheStats fields: the runs that moved them"
  echo
  echo "$(cut -f1 "$out" | wc -l) caches dropped across $(cut -f1 "$out" | sort -u | wc -l) runs."
  echo
  echo "| field | runs | moved in |"
  echo "|---|---:|---|"
  # A gauge is a level; at drop it has usually fallen back to zero.
  local gauges
  gauges=$(awk '/^    gauges \{/ {on = 1; next} on && /^    \}/ {exit}
    on && /^        [a-z_]+,$/ {gsub(/[ ,]/, ""); printf "%s ", $0}' crates/cache/src/stats.rs)
  awk -F'\t' -v gauges=" $gauges" '
    {
      body = $2; gsub(/^CacheStats \{ | \}$/, "", body)
      n = split(body, pairs, ", ")
      for (i = 1; i <= n; i++) {
        split(pairs[i], kv, ": ")
        if (!(kv[1] in seen)) { seen[kv[1]] = 1; order[++fields] = kv[1] }
        if (kv[2] + 0 > 0 && !((kv[1], $1) in moved)) {
          moved[kv[1], $1] = 1; runs[kv[1]] = runs[kv[1]] (runs[kv[1]] == "" ? "" : ", ") $1
          count[kv[1]]++
        }
      }
    }
    END {
      for (i = 1; i <= fields; i++) {
        f = order[i]
        idle = index(gauges, " " f " ") ? "gauge, zero at every drop" : "**never moved**"
        printf "| `%s` | %d | %s |\n", f, count[f], count[f] ? runs[f] : idle
      }
    }' "$out"
  echo
}

if [[ "${1:-}" == "--surface" ]]; then
  surface
else
  runtime
  surface
fi
