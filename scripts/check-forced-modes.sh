#!/usr/bin/env bash
# The sharded datapath must be invisible to the tests too: the whole suite
# runs with 4 executor threads forced. The facade's root test targets are
# listed from tests/*.rs, so a new one cannot be left out of the forced run;
# only two stay out by name — the benchmark's smoke test (tests/nkbench/
# asserts the variable is unset: it measures at each workload's own thread
# count) and tests/layering.rs (reads manifests; no executor in it).
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

echo "== NK_CLUSTER_THREADS=4: workspace, then netkernel --lib ${targets[*]}"
NK_CLUSTER_THREADS=4 cargo test --workspace --exclude netkernel -q
NK_CLUSTER_THREADS=4 cargo test -p netkernel -q --lib "${targets[@]}"
