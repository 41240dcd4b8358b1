#!/usr/bin/env bash
# "Same bytes", machine-checked: every root example's stdout must equal
# tests/golden/<example>.stdout under each executor mode — serial, 4 worker
# threads, and 4 threads with hosts split into share lanes. Equal to the
# golden implies identical across runs, across thread counts and across
# shard modes. Only the line echoing the shard mode itself is filtered.
# After an intended change: cargo run --release -q --example X > tests/golden/X.stdout
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --examples

filter() { grep -v '^intra-host sharding:'; }
checks=0
failed=0
for mode in "" "NK_CLUSTER_THREADS=4" "NK_CLUSTER_SHARD_WITHIN_HOSTS=1 NK_CLUSTER_THREADS=4"; do
  for golden in tests/golden/*.stdout; do
    example=$(basename "$golden" .stdout)
    [ "$example" = experiments ] && continue # bench-smoke's golden
    checks=$((checks + 1))
    # shellcheck disable=SC2086  # $mode is zero or more VAR=value words
    if ! env $mode "target/release/examples/$example" | filter | diff <(filter <"$golden") - >/dev/null; then
      echo "DIFF $example [${mode:-default}]"
      failed=$((failed + 1))
    fi
  done
done
echo "goldens: $((checks - failed))/$checks checks equal"
[ "$failed" -eq 0 ]
