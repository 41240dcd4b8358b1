#!/usr/bin/env bash
# The TCP tick stays O(active): a traced `churn` run (32 live connections,
# thousands parked in TIME-WAIT by the end) must keep its rate inside the
# window and must not spend its time in the stack. Both gates are ratios
# taken inside one run, so the machine's speed cancels. With a tick that
# walked every socket they read 0.51 and 0.94.
#   host.rate_decay          >= 0.75  (ops/s in the last quarter of the window over the first)
#   netstack.self_share      <= 0.6   (share of wall time inside TcpStack::tick)
#   trace.wired_matches_host == 1     (the traced host is the real host)
set -euo pipefail
cd "$(dirname "$0")/.."

# The command of BENCHMARK.json, so the binary is built the way the driver builds it.
out=$(cargo run --release --offline --quiet --manifest-path examples/nkbench/Cargo.toml -- \
  --workload churn --seed 1 --seconds 3 --trace 1)

metric() {
  grep -o "\"$1\":{\"value\":[-0-9.e+]*" <<<"$out" | sed 's/.*"value"://'
}
decay=$(metric host.rate_decay)
share=$(metric netstack.self_share)
wired=$(metric trace.wired_matches_host)
echo "churn: host.rate_decay=$decay netstack.self_share=$share trace.wired_matches_host=$wired"
awk -v d="$decay" -v s="$share" -v w="$wired" 'BEGIN { exit !(d >= 0.75 && s <= 0.6 && w == 1) }' || {
  echo "churn is no longer flat in socket count (want rate_decay >= 0.75, self_share <= 0.6, wired == 1)"
  exit 1
}
