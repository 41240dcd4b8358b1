#!/usr/bin/env bash
# Allocation gates, each a count per operation inside one traced 3-second
# run, so the machine's speed cancels.
# - A data segment pays once: `bulk` (4 connections echoing 16 KiB chunks,
#   ~23 segments per operation) allocates per `write`, not per segment. With
#   a `Vec` per segment it read 25.8; shared payload runs leave one buffer
#   per write plus one per segment that straddles two writes.
# - A call pays nothing: GuestLib allocates nothing per call, so `rpc` sits
#   near two per echo. With a `Vec` per response batch and per `recv` `rpc`
#   read 3.9.
# - A connection pays once: `churn` (open, exchange, close) reuses connection
#   slots with their queue storage and holds congestion control inline. It
#   read 17.4 with a slot, a congestion-control box and fresh queue tables
#   per connection, 18.8 when it also parked a whole connection per
#   TIME-WAIT socket, and 6.4 with a boxed socket-table entry per
#   connection and per record; it reads 4.9 with the slot vector.
#   bulk:  host.allocs_per_op <= 8,   trace.wired_matches_host == 1
#   churn: host.allocs_per_op <= 5.5, trace.wired_matches_host == 1
#   rpc:   host.allocs_per_op <= 2.5, trace.wired_matches_host == 1
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for gate in bulk:8 churn:5.5 rpc:2.5; do
  workload=${gate%%:*}
  limit=${gate#*:}
  # The command of BENCHMARK.json, so the binary is built the way the benchmark builds it.
  out=$(cargo run --release --offline --quiet --manifest-path examples/nkbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 3 --trace 1)
  metric() {
    grep -o "\"$1\":{\"value\":[-0-9.e+]*" <<<"$out" | sed 's/.*"value"://'
  }
  allocs=$(metric host.allocs_per_op)
  wired=$(metric trace.wired_matches_host)
  echo "$workload: host.allocs_per_op=$allocs trace.wired_matches_host=$wired"
  awk -v a="$allocs" -v l="$limit" -v w="$wired" 'BEGIN { exit !(a <= l && w == 1) }' || {
    echo "$workload allocates per segment, connection or call again (want allocs_per_op <= $limit, wired == 1)"
    status=1
  }
done
exit $status
