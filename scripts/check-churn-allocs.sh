#!/usr/bin/env bash
# Allocation gates, each a count per operation inside one traced 3-second
# run, so the machine's speed cancels.
# - A data segment pays once and a hugepage hop pays nothing: `bulk` (4
#   connections echoing 16 KiB chunks, ~23 segments per operation)
#   allocates per echo `write`, not per segment or per hop. A guest write
#   reuses a recycled buffer, the NSM moves that buffer's run into its
#   stack and the echo's runs into a fresh chunk by reference, so what is
#   left is the echo's write plus a gathered segment where two writes meet.
#   With a `Vec` per segment it read 25.8; with shared runs but a copy per
#   hugepage hop, 2.6; it reads ~1.6.
# - A call pays nothing: GuestLib allocates nothing per call, so `rpc` sits
#   near one per echo. With a `Vec` per response batch and per `recv` `rpc`
#   read 3.9, and 2.2 while each hugepage hop still copied.
# - A connection pays once: `churn` (open, exchange, close) reuses connection
#   slots with their queue storage and holds congestion control inline. It
#   read 17.4 with a slot, a congestion-control box and fresh queue tables
#   per connection, 18.8 when it also parked a whole connection per
#   TIME-WAIT socket, 6.4 with a boxed socket-table entry per connection and
#   per record, and 4.9 with the slot vector before the hops stopped
#   copying; it reads ~3.8.
#   bulk:  host.allocs_per_op <= 2,   trace.wired_matches_host == 1
#   churn: host.allocs_per_op <= 4.5, trace.wired_matches_host == 1
#   rpc:   host.allocs_per_op <= 1.5, trace.wired_matches_host == 1
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for gate in bulk:2 churn:4.5 rpc:1.5; do
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
