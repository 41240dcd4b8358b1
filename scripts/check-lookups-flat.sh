#!/usr/bin/env bash
# A table that is only looked up costs the same at 10 entries and at 1000:
# a traced `rpc` run's layer drives must not show the per-level cost of a
# B-tree again in the connection table or the stack's demultiplexer. Both
# gates are ratios of two drives inside one run, so the machine's speed
# cancels. As `BTreeMap`s the tables read 3.0-3.2 (57 ns / 18 ns) and
# 1.78-1.81 (178 ns / 100 ns) on three runs; as `DetMap`s 0.86-1.10
# (5.4 ns / 5.6 ns) and 0.77-1.10 (82-109 ns / 95-110 ns) on ten.
#   engine.conntable_get_ns_1e3 <= 2   x engine.conntable_get_ns_1e1
#   netstack.demux_ns_1e3       <= 1.4 x netstack.seg_ns_bulk
#   trace.wired_matches_host    == 1     (the traced host is the real host)
set -euo pipefail
cd "$(dirname "$0")/.."

# The command of BENCHMARK.json, so the binary is built the way the driver builds it.
out=$(cargo run --release --offline --quiet --manifest-path examples/nkbench/Cargo.toml -- \
  --workload rpc --seed 1 --seconds 3 --trace 1)

metric() {
  grep -o "\"$1\":{\"value\":[-0-9.e+]*" <<<"$out" | sed 's/.*"value"://'
}
get1e1=$(metric engine.conntable_get_ns_1e1)
get1e3=$(metric engine.conntable_get_ns_1e3)
demux=$(metric netstack.demux_ns_1e3)
seg=$(metric netstack.seg_ns_bulk)
wired=$(metric trace.wired_matches_host)
echo "rpc: engine.conntable_get_ns_1e1=$get1e1 engine.conntable_get_ns_1e3=$get1e3 netstack.demux_ns_1e3=$demux netstack.seg_ns_bulk=$seg trace.wired_matches_host=$wired"
awk -v a="$get1e1" -v b="$get1e3" -v d="$demux" -v s="$seg" -v w="$wired" \
  'BEGIN { exit !(b <= 2 * a && d <= 1.4 * s && w == 1) }' || {
  echo "a lookup-only table grows with its size again (want conntable_get 1e3 <= 2 x 1e1, demux_1e3 <= 1.4 x seg_bulk, wired == 1)"
  exit 1
}
