#!/usr/bin/env bash
# What the runs reach, and what nothing outside the tests uses.
#
#   scripts/census.sh            # both halves (builds a copy; a few minutes)
#   scripts/census.sh --surface  # the surface half only: greps, no build
#   OFFLINE=1 scripts/census.sh  # pass --offline to every cargo call
#
# The runtime half copies the tree to target/census/tree, appends a `Drop`
# for `DocumentCache` to the copy that writes the cache's `CacheStats`, and
# runs every experiment at full size, `benchmark/run.sh --smoke` and every
# example there. It prints each `CacheStats` field with the runs that moved
# it. The committed tree gets no hook: everything happens in the copy.
#
# The surface half prints each public field of the option structs and each
# public method of `DocumentCache`, `WriteJournal` and the report types
# with the callers outside `tests/`, test modules and the cache crate, and
# the distinct values those callers set (by name: a same-named method or
# field of another type counts too). It fails when an option field has
# no such use — no setter call, no struct-literal field, no constructor
# argument — unless `ALLOWED` below names it with its reason.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$PWD"

CARGO_FLAGS=()
if [[ "${OFFLINE:-0}" == "1" ]]; then
  CARGO_FLAGS+=(--offline)
fi

# Option fields no caller outside the tests has to set, each with why it
# stays.
ALLOWED=(
  "MergePolicy.on_unmergeable: the benchmark's re-cut deletes recover's hook instead (ROADMAP item 3)"
)
OPTION_STRUCTS=(CacheConfig OriginConfig WindowConfig OverloadControl ReadOptions MergePolicy
  PrefetchConfig)
METHOD_TYPES=(DocumentCache WriteJournal JournalRecord FlushReport RecoveryReport MergeReport CacheStats)
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

# The public functions of type `$1`, from its inherent impls: `T::f` for
# an associated function, `.f` for a method.
methods_of() {
  find crates/cache/src -name '*.rs' -print0 | xargs -0 awk -v t="$1" '
    /^#\[cfg\(test\)\]/ {nextfile}
    $0 ~ "^impl(<[^>]*>)? " t " \\{" {on = 1; next}
    on && /^}/ {on = 0}
    on && match($0, /^    pub fn [a-z_0-9]+/) {
      name = substr($0, RSTART + 11, RLENGTH - 11); sig = $0
      while (sig !~ /\)/ && (getline more) > 0) sig = sig more
      print (sig ~ /\( *(&(mut )?)?self/ ? "." : t "::") name
    }' |
    sort -u
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
  echo "### Public functions: caller files outside tests"
  echo
  echo "A method counts the callers of every method of its name."
  echo
  echo "| function | files |"
  echo "|---|---:|"
  local t m files
  for t in "${METHOD_TYPES[@]}"; do
    for m in $(methods_of "$t"); do
      # A call inside a function of the same name delegates; it is no use.
      files=$(awk -v call="$m(" -v name="${m#*[.:]}" '
        match($0, /fn [a-z_0-9]+[(<]/) {within = substr($0, RSTART + 3, RLENGTH - 4)}
        index($0, call) && within != name {sub(/:.*/, ""); print}' "$callers_file" |
        sort -u | wc -l)
      echo "| \`${m/#./$t::}\` | $files$( ((files == 0)) && echo ' **none**') |"
    done
  done
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
