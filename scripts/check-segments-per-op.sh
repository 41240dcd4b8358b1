#!/usr/bin/env bash
# Segment gates, each a count per operation inside one traced 3-second run,
# so the machine's speed cancels (the run is seeded, so the counts are exact).
# Each workload must read its pinned value exactly, at two decimals: more
# segments per operation is a protocol regression, fewer is a count that
# lost segments (a train of k full-sized segments counted as one).
# - A read owes the peer nothing (RFC 9293 §3.8.6.2.2, receiver silly-window
#   avoidance): a read sends a pure window update only once it opens the
#   window by min(half the buffer, one MSS) past the edge last advertised.
# - An in-order segment's ACK is delayed (RFC 9293 §3.8.6.3) until a segment
#   carries it or 500 µs pass. A 64-B `rpc` echo reads 2.00 per operation:
#   the reply carries the request's ACK, the next request the reply's. It
#   read 4.00 when every data segment drew a pure ACK on the next tick, and
#   5.00 when every read that returned bytes owed an update too. `churn`
#   (open, exchange, close) reads 9.00 (8.997); 11.00 (10.996) and 12.00
#   (11.995) before.
# - `bulk` (16 KiB chunks through wide-open windows) reads 22.63 in all three:
#   its reads open the window by far more than an MSS, and its ACKs already
#   ride on the echoed data. Its full-sized segments travel as trains, and
#   each still counts.
# - Every segment the NSM stacks send or receive crosses one vNIC link, so
#   `fabric.frames` (wire frames the links delivered) equals
#   `netstack.segments` (254 055, 28 501 and 212 866 on seed 1).
#   rpc:   netstack.segments / sim.ops == 2.00,  fabric.frames == netstack.segments, trace.wired_matches_host == 1
#   churn: netstack.segments / sim.ops == 9.00,  fabric.frames == netstack.segments, trace.wired_matches_host == 1
#   bulk:  netstack.segments / sim.ops == 22.63, fabric.frames == netstack.segments, trace.wired_matches_host == 1
# The ratio is compared at two decimals: the handshakes that open the run's
# connections add a few segments that no operation owns.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for gate in rpc:2.00 churn:9.00 bulk:22.63; do
  workload=${gate%%:*}
  pinned=${gate#*:}
  # The command of BENCHMARK.json, so the binary is built the way the benchmark builds it.
  out=$(cargo run --release --offline --quiet --manifest-path examples/nkbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 3 --trace 1)
  metric() {
    grep -o "\"$1\":{\"value\":[-0-9.e+]*" <<<"$out" | sed 's/.*"value"://'
  }
  segments=$(metric netstack.segments)
  frames=$(metric fabric.frames)
  ops=$(metric sim.ops)
  wired=$(metric trace.wired_matches_host)
  per_op=$(awk -v s="$segments" -v o="$ops" 'BEGIN { printf "%.2f", (o > 0 ? s / o : 1e9) }')
  echo "$workload: segments_per_op=$per_op (netstack.segments=$segments sim.ops=$ops) fabric.frames=$frames trace.wired_matches_host=$wired"
  awk -v p="$per_op" -v want="$pinned" -v s="$segments" -v f="$frames" -v w="$wired" \
    'BEGIN { exit !(p == want && s == f && w == 1) }' || {
    echo "$workload segments per operation or frames moved (want $pinned, fabric.frames == netstack.segments, wired == 1)"
    status=1
  }
done
exit $status
