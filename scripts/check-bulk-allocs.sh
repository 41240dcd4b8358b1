#!/usr/bin/env bash
# A data segment pays once: a traced `bulk` run (4 connections echoing
# 16 KiB chunks, ~23 segments per operation) must allocate per `write`, not
# per segment. The gate is a count per operation, so the machine's speed
# cancels. With a `Vec` per segment it read 25.8; shared payload runs leave
# one buffer per write plus one per segment that straddles two writes.
#   host.allocs_per_op       <= 8
#   trace.wired_matches_host == 1     (the traced host is the real host)
set -euo pipefail
cd "$(dirname "$0")/.."

# The command of BENCHMARK.json, so the binary is built the way the driver builds it.
out=$(cargo run --release --offline --quiet --manifest-path examples/nkbench/Cargo.toml -- \
  --workload bulk --seed 1 --seconds 3 --trace 1)

metric() {
  grep -o "\"$1\":{\"value\":[-0-9.e+]*" <<<"$out" | sed 's/.*"value"://'
}
allocs=$(metric host.allocs_per_op)
wired=$(metric trace.wired_matches_host)
echo "bulk: host.allocs_per_op=$allocs trace.wired_matches_host=$wired"
awk -v a="$allocs" -v w="$wired" 'BEGIN { exit !(a <= 8 && w == 1) }' || {
  echo "bulk allocates per segment again (want allocs_per_op <= 8, wired == 1)"
  exit 1
}
