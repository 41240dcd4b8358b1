#!/usr/bin/env bash
# "Same bytes", machine-checked: every root example's stdout must equal
# tests/golden/<example>.stdout under each executor mode — serial and 4
# worker threads. Equal to the golden implies identical across runs and
# across thread counts.
# After an intended change: cargo run --release -q --example X > tests/golden/X.stdout
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --examples

checks=0
failed=0
for mode in "" "NK_CLUSTER_THREADS=4"; do
  for golden in tests/golden/*.stdout; do
    example=$(basename "$golden" .stdout)
    [ "$example" = experiments ] && continue # bench-smoke's golden
    checks=$((checks + 1))
    # shellcheck disable=SC2086  # $mode is zero or one VAR=value word
    if ! env $mode "target/release/examples/$example" | diff "$golden" - >/dev/null; then
      echo "DIFF $example [${mode:-default}]"
      failed=$((failed + 1))
    fi
  done
done
echo "goldens: $((checks - failed))/$checks checks equal"
[ "$failed" -eq 0 ]
