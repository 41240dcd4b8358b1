#!/usr/bin/env bash
# Allocation gates, each a count per operation inside one traced 3-second
# run, so the machine's speed cancels.
# - A data segment pays once and a hugepage hop pays nothing: `bulk` (4
#   connections echoing 16 KiB chunks, ~23 segments per operation)
#   allocates neither per echo `write`, per segment nor per hop. A guest
#   write and a stack write reuse recycled buffers, the NSM moves runs by
#   reference, and a segment straddling two writes is gathered into a
#   recycled buffer too. With a `Vec` per segment it read 25.8; with shared
#   runs but a copy per hugepage hop, 2.6; and 1.3 while each gathered seam
#   piece was a fresh buffer; it reads ~0.10.
# - A call pays nothing: GuestLib allocates nothing per call, and a send
#   queue's open tail is frozen into a recycled buffer, so `rpc` allocates
#   about once per 20 echoes. With a `Vec` per response batch and per `recv`
#   `rpc` read 3.9, 2.2 while each hugepage hop still copied, and 1.1 while
#   each frozen tail was a fresh buffer; it reads ~0.05.
# - A connection pays once: `churn` (open, exchange, close) reuses connection
#   slots with their queue storage and holds congestion control inline. It
#   read 17.4 with a slot, a congestion-control box and fresh queue tables
#   per connection, 18.8 when it also parked a whole connection per
#   TIME-WAIT socket, 6.4 with a boxed socket-table entry per connection and
#   per record, 4.9 with the slot vector before the hops stopped copying,
#   and 3.8 while each frozen tail was a fresh buffer; it reads ~2.7.
#   bulk:  host.allocs_per_op <= 0.2, trace.wired_matches_host == 1
#   churn: host.allocs_per_op <= 3.0, trace.wired_matches_host == 1
#   rpc:   host.allocs_per_op <= 0.1, trace.wired_matches_host == 1
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for gate in bulk:0.2 churn:3.0 rpc:0.1; do
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
