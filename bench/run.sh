#!/usr/bin/env bash
# The repo benchmark. Builds bench/ (a cargo package of its own, release
# profile, offline) and runs it.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                     [--out <dir>] [--save <dir>]
#       One run of one workload; what BENCHMARK.json's command expands to.
#       The last line of standard output is the result as one JSON object.
#       With --trace 1 the spans land in bench/out/trace-<workload>.jsonl.
#   bash bench/run.sh [--seed <n>] [--seconds <s>] [--trace <0|1>]
#       All four workloads, one after another (timed unless --trace 1).
#   bash bench/run.sh compare <a-dir> <b-dir>
#       Judge two directories of saved runs against BENCHMARK.json.
#   bash bench/run.sh --selfcheck [--seconds <s>]
#       Two sets of ten timed runs of every workload of the working tree,
#       each run of a set on another seed, then `compare` of the two sets.
#
# Workloads: probe-mem, probe-paged, heavy-shard4, ingest-mix.
# Default seed: 19970513 (SIGMOD '97 opened on 13 May 1997). Default seconds: 15.
# --out and --save are resolved against this script's directory, not the
# caller's: bench/out is where everything the benchmark writes goes.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
DEFAULT_SEED=19970513
DEFAULT_SECONDS=15
WORKLOADS=(probe-mem probe-paged heavy-shard4 ingest-mix)

# cargo reads a relative CARGO_TARGET_DIR against its own working
# directory; pin it before changing directory.
case "${CARGO_TARGET_DIR:-}" in
  "") TARGET="$HERE/target" ;;
  /*) TARGET="$CARGO_TARGET_DIR" ;;
  *) TARGET="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR="$TARGET"
BIN="$TARGET/release/tsq-benchmark"

# Build output goes to standard error: standard output is the result's.
cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml" 1>&2

# A directory argument as the benchmark sees it: relative paths are
# relative to bench/.
resolve() {
  case "$1" in
    /*) printf '%s' "$1" ;;
    *) printf '%s' "$HERE/$1" ;;
  esac
}

mode=single
seed=$DEFAULT_SEED
seconds=$DEFAULT_SECONDS
trace=0
out="$HERE/out"
args=()
has_workload=0
while [ $# -gt 0 ]; do
  case "$1" in
    compare)
      shift
      exec "$BIN" compare "$@" --spec "$ROOT/BENCHMARK.json"
      ;;
    --selfcheck) mode=selfcheck; shift ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out) out="$(resolve "$2")"; shift 2 ;;
    --save) args+=(--save "$(resolve "$2")"); shift 2 ;;
    --workload) has_workload=1; args+=("$1" "$2"); shift 2 ;;
    -h|--help) sed -n '2,23p' "${BASH_SOURCE[0]}"; exit 0 ;;
    *) args+=("$1"); [ $# -gt 1 ] && { args+=("$2"); shift; }; shift ;;
  esac
done

one() { "$BIN" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" "$@"; }

case "$mode" in
  single)
    if [ "$has_workload" = 1 ]; then
      one ${args[@]+"${args[@]}"}
    else
      for w in "${WORKLOADS[@]}"; do
        echo "== $w" 1>&2
        one --workload "$w" ${args[@]+"${args[@]}"}
      done
    fi
    ;;
  selfcheck)
    check="$out/selfcheck"
    rm -rf "$check"
    for set in a b; do
      for i in $(seq 1 10); do
        for w in "${WORKLOADS[@]}"; do
          echo "== set $set, run $i, $w" 1>&2
          "$BIN" --workload "$w" --seed $((seed + i)) --seconds "$seconds" --trace 0 \
            --out "$out" --save "$check/$set" 2>/dev/null | tail -n 1
        done
      done
    done
    "$BIN" compare "$check/a" "$check/b" --spec "$ROOT/BENCHMARK.json"
    ;;
esac
