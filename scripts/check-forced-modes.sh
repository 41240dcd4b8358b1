#!/usr/bin/env bash
# The sharded datapath must be invisible to the tests too: the whole suite
# runs with 4 executor threads forced, first with hosts and then with share
# lanes as the units. The facade's root test targets are listed from
# tests/*.rs, so a new one cannot be left out of the forced runs; only two
# stay out by name — the benchmark's smoke test (tests/nkbench/ asserts these
# variables are unset: it measures at each workload's own thread count) and
# tests/layering.rs (reads manifests; no executor in it).
set -euo pipefail
cd "$(dirname "$0")/.."

targets=()
for file in tests/*.rs; do
  name=$(basename "$file" .rs)
  case $name in
    nkbench | layering) ;;
    *) targets+=(--test "$name") ;;
  esac
done

for mode in "NK_CLUSTER_THREADS=4" "NK_CLUSTER_SHARD_WITHIN_HOSTS=1 NK_CLUSTER_THREADS=4"; do
  echo "== $mode: workspace, then netkernel --lib ${targets[*]}"
  # shellcheck disable=SC2086  # $mode is one or more VAR=value words
  env $mode cargo test --workspace --exclude netkernel -q
  # shellcheck disable=SC2086
  env $mode cargo test -p netkernel -q --lib "${targets[@]}"
done
