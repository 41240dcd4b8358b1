#!/usr/bin/env bash
# The host<->ToR trunk is an ordinary burst port, ordered by the round
# barrier: a traced `xhost_t1` run's ToR drive must cost about what the
# vSwitch drive costs per frame, and the cluster datapath must not allocate
# a queue node per frame or per lane report again. The first gate is a ratio
# of two drives inside one run, so the machine's speed cancels; the second
# is a count. Over the wait-free queue the run read tor/vswitch 2.28-2.43
# and allocs_per_op 4.93-4.94 on three seeds; as a port, 1.06-1.07 and
# 3.64-3.65. Since the ToR and the host vSwitch became one route table the
# ratio compares one forwarding loop with itself (8 trunk routes against 2
# vNIC routes), so it guards the trunk-as-port hand-off, not a second loop.
#   fabric.tor_ns_per_frame  <= 1.6 x fabric.vswitch_ns_per_frame
#   host.allocs_per_op       <= 4.3
#   trace.wired_matches_host == 1     (the traced host is the real host)
set -euo pipefail
cd "$(dirname "$0")/.."

# The command of BENCHMARK.json, so the binary is built the way the driver builds it.
out=$(cargo run --release --offline --quiet --manifest-path examples/nkbench/Cargo.toml -- \
  --workload xhost_t1 --seed 1 --seconds 3 --trace 1)

metric() {
  grep -o "\"$1\":{\"value\":[-0-9.e+]*" <<<"$out" | sed 's/.*"value"://'
}
tor=$(metric fabric.tor_ns_per_frame)
vswitch=$(metric fabric.vswitch_ns_per_frame)
allocs=$(metric host.allocs_per_op)
wired=$(metric trace.wired_matches_host)
echo "xhost_t1: fabric.tor_ns_per_frame=$tor fabric.vswitch_ns_per_frame=$vswitch host.allocs_per_op=$allocs trace.wired_matches_host=$wired"
awk -v t="$tor" -v v="$vswitch" -v a="$allocs" -v w="$wired" \
  'BEGIN { exit !(t <= 1.6 * v && a <= 4.3 && w == 1) }' || {
  echo "the trunk costs more than a port again (want tor <= 1.6 x vswitch per frame, allocs_per_op <= 4.3, wired == 1)"
  exit 1
}
