#!/usr/bin/env bash
# Count gates: one traced 3-second nkbench run per workload, and every bound
# a count per operation inside it, so the machine's speed cancels (the runs
# are seeded, so segment counts are exact), plus two memory ceilings. No
# bound here reads a clock.
# - Allocations per operation (`host.allocs_per_op`, at most):
#   - bulk 0.2 (reads ~0.10): a data segment pays once and a hugepage hop
#     pays nothing. Guest and stack writes, and a segment gathered across
#     two writes, reuse recycled buffers; the NSM moves runs by reference.
#     25.8 with a `Vec` per segment, 2.6 with a copy per hugepage hop, 1.3
#     while each gathered seam piece was a fresh buffer.
#   - rpc 0.1 (~0.05): a call pays nothing. 3.9 with a `Vec` per response
#     batch and per `recv`, 2.2 while the hops copied, 1.1 while each frozen
#     send-queue tail was a fresh buffer.
#   - churn 1.6 (~1.47): a connection pays once, reusing its slot, queue
#     storage and inline congestion control, and its GuestLib and ServiceLib
#     records reuse a slot table's. 17.4 with a slot, a boxed congestion
#     control and fresh queues per connection, 18.8 parking a whole
#     connection per TIME-WAIT socket, 6.4 with a boxed socket-table entry,
#     4.9 while the hops copied, 3.8 with fresh frozen tails, 2.7 with a
#     fresh GuestLib `rx_chunks` queue per socket and its sockets in a
#     B-tree.
#   - xhost_t1 0.8 (~0.40): the host<->ToR trunk is a port that trades
#     buffers. 4.9 with a queue node per trunk frame and per lane report,
#     3.6 before the ports traded buffers.
# - Segments per operation (`netstack.segments / sim.ops`, equal at two
#   decimals; the handshakes opening a run add a few that no operation
#   owns). More is a protocol regression, fewer a count that lost segments:
#   - rpc 2.00: an in-order segment's ACK waits up to 500 us for a segment
#     to carry it (RFC 9293 3.8.6.3), and a read owes the peer a window
#     update only once it opens the window by min(half the buffer, one
#     MSS) (3.8.6.2.2). 4.00 with an ACK per data segment, 5.00 when every
#     read owed an update too;
#   - churn 9.00 (11.00 and 12.00 before those two rules);
#   - bulk 22.63 throughout: its ACKs ride on echoed data, its reads open
#     the window by far more than an MSS, and a train of full-sized
#     segments still counts each.
# - Every segment the NSM stacks send or receive crosses one vNIC link:
#   `fabric.frames == netstack.segments` on bulk, rpc and churn (a train
#   counted as one frame breaks it).
# - `trace.wired_matches_host == 1` on every run: the traced host is the
#   real host.
# - Peak resident memory (`peak_rss_MB`, at most; one untraced 3-second run
#   each, since the tracer keeps its own records): an empty NQE ring past
#   its first page starts over at slot 0 when its host goes quiet, so a
#   ring's memory is that page plus one round's traffic, and this holds
#   every queue set, region and table to what the workload needs.
#   - rpc 6.6 (20 runs read 6.16-6.40, median 6.28): 6.75-6.89 (median
#     6.83) while the flight recorder's per-host latency feed queued a
#     stamp per request, 9.4 with 4096-slot NQE rings.
#   - xhost_t1 7.45 (20 runs read 7.09-7.25, median 7.16): 7.68-7.92
#     (median 7.79) with that feed, 8.01-8.17 (median 8.09) while each
#     ring wrote all of its 512 slots in turn (its 128 rings 2 MiB), 12.3
#     with 4096-slot rings (32 queue sets of 512 KiB).
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
# One metric of the report in $out.
metric() {
  grep -o "\"$1\":{\"value\":[-0-9.e+]*" <<<"$out" | sed 's/.*"value"://'
}
# workload, allocs_per_op bound, pinned segments per operation (- for none)
while read -r workload allocs_max pinned; do
  # The command of BENCHMARK.json, so the binary is built the way the benchmark builds it.
  out=$(cargo run --release --offline --quiet --manifest-path examples/nkbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 3 --trace 1 </dev/null)
  allocs=$(metric host.allocs_per_op)
  segments=$(metric netstack.segments)
  frames=$(metric fabric.frames)
  ops=$(metric sim.ops)
  wired=$(metric trace.wired_matches_host)
  per_op=$(awk -v s="$segments" -v o="$ops" 'BEGIN { printf "%.2f", (o > 0 ? s / o : 1e9) }')
  segs=""
  if [ "$pinned" != - ]; then
    segs=" segments_per_op=$per_op (netstack.segments=$segments sim.ops=$ops) fabric.frames=$frames"
  fi
  echo "$workload: host.allocs_per_op=$allocs$segs trace.wired_matches_host=$wired"
  awk -v a="$allocs" -v l="$allocs_max" -v p="$per_op" -v want="$pinned" -v s="$segments" -v f="$frames" -v w="$wired" \
    'BEGIN { exit !(a <= l && w == 1 && (want == "-" || (p == want && s == f))) }' || {
    echo "$workload: a count moved (want allocs_per_op <= $allocs_max, segments_per_op == $pinned and fabric.frames == netstack.segments where pinned, wired == 1)"
    status=1
  }
done <<'EOF'
bulk 0.2 22.63
rpc 0.1 2.00
churn 1.6 9.00
xhost_t1 0.8 -
EOF

# workload, peak_rss_MB bound
while read -r workload rss_max; do
  out=$(cargo run --release --offline --quiet --manifest-path examples/nkbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 3 --trace 0 </dev/null)
  rss=$(metric peak_rss_MB)
  echo "$workload: peak_rss_MB=$rss"
  awk -v r="$rss" -v l="$rss_max" 'BEGIN { exit !(r != "" && r <= l) }' || {
    echo "$workload: peak memory grew (want peak_rss_MB <= $rss_max)"
    status=1
  }
done <<'EOF'
rpc 6.6
xhost_t1 7.45
EOF
exit $status
