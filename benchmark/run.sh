#!/usr/bin/env bash
# Build the scoreboard (release, offline, against the repo's vendored shims)
# and run it. From the root of the repository:
#
#   benchmark/run.sh                         all four workloads, untraced then traced
#   benchmark/run.sh --workload ycsb_a       one workload, untraced then traced
#   benchmark/run.sh --workload ycsb_a --seed 12 --seconds 15 --trace 0
#   benchmark/run.sh --traced                traced runs only (same as --trace 1)
#   benchmark/run.sh --out /tmp/a            where spans and runs.jsonl go (default benchmark/out)
#   benchmark/run.sh --check                 the self-test
#   benchmark/run.sh compare a.jsonl b.jsonl
#
# Each run prints its metrics by name and unit on stderr and, as the last
# line of stdout, the result object of the benchmark contract.
set -euo pipefail

here=$(dirname "$0")
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/scoreboard"

case "${1:-}" in
--check | compare) exec "$bin" "$@" ;;
esac

workloads=(ycsb_a app_query live_fanout client_sync)
traces=(0 1)
pass=()
while [ $# -gt 0 ]; do
  case "$1" in
  --workload) workloads=("$2") && shift 2 ;;
  --trace) traces=("$2") && shift 2 ;;
  --traced) traces=(1) && shift ;;
  *) pass+=("$1" "$2") && shift 2 ;;
  esac
done
for workload in "${workloads[@]}"; do
  for trace in "${traces[@]}"; do
    "$bin" --workload "$workload" --trace "$trace" "${pass[@]}"
  done
done
