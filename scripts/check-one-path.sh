#!/usr/bin/env bash
# One path per job: counted greps that keep a path this codebase folded into
# one from growing a second copy back. One line per invariant: the count,
# the bound it must meet, and why. Non-test code only (`code` cuts each
# file's `#[cfg(test)]` module). Run from anywhere; prints every invariant
# that fails and exits 1 if any did. Counted, not `! grep`: a negated
# command is invisible to `set -e`.
set -u
cd "$(dirname "$0")/.."

code() { find "$@" -name '*.rs' -exec sed -s '/^#\[cfg(test)\]/,$d' {} +; }
fails=0
check() { # <count> <test op> <bound> <why>
    if ! [ "$1" "$2" "$3" ]; then
        echo "FAIL: $4 (counted $1, want $2 $3)"
        fails=1
    fi
}

# A caller that branches on `ResponderEnd::respond`'s result: `.respond(..)`
# followed by a method or `?`, or bound by `if`/`match`/`while`/`let x =`.
inspects_respond='\.respond\(.*\)[.?]|(\bif|\bmatch|\bwhile|\blet +[^_ ]).*\.respond\('
not_nk_queue=$(find crates -mindepth 1 -maxdepth 1 -type d ! -name nk-queue)

check "$(grep -rhoE 'pub struct [A-Za-z]*Scenario\b' crates/nk-workload/src | sort -u | wc -l)" -eq 1 \
    "one scenario runner: nk-workload has one *Scenario struct"
check "$(code crates/nk-workload/src/scenario.rs | grep -c 'NetKernelHost::new')" -eq 0 \
    "one scenario runner: it builds no host of its own, a lone host is the one-host cluster"
check "$(grep -rlE --include='*.rs' 'unbounded\(|UnboundedProducer|UnboundedConsumer' crates | grep -vc '^crates/nk-queue/')" -eq 0 \
    "the round barrier orders every cross-shard hand-off: no crate outside nk-queue names the wait-free queue"
check "$(grep -c 'nk-queue' crates/nk-fabric/Cargo.toml crates/nk-cluster/Cargo.toml | awk -F: '{ n += $2 } END { print n }')" -eq 0 \
    "the round barrier orders every cross-shard hand-off: nk-fabric and nk-cluster do not depend on nk-queue"
check "$(code crates/nk-cluster/src | grep -c 'thread::scope')" -eq 0 \
    "one place spawns executor threads: no step opens a thread scope of its own"
check "$(code crates/nk-cluster/src | grep -c 'thread::spawn')" -eq 1 \
    "one place spawns executor threads: the executor's crew, once per helper for the executor's life"
check "$(code crates/nk-cluster/src | grep -cE 'ShareLane|split_lanes|Unit::Lane')" -eq 0 \
    "one parallel unit, the host: the cluster step never splits a host into share lanes"
check "$(code crates | grep -cE 'NK_CLUSTER_SHARD_WITHIN_HOSTS|ReportEdge|LaneReport')" -eq 0 \
    "one parallel unit, the host: no shard-mode override and no lane report edge"
check "$(code crates | grep -cE 'vm_home|ActiveDrain|StepStatus|ControlLogEntry|control_log\(')" -eq 0 \
    "placement has one record: no home/drain mirror, step-status DAG or merged control-log view"
check "$(code crates/nk-ctrl/src/evacuate.rs | grep -c 'deps')" -eq 0 \
    "placement has one record: an evacuation plan is a plain list run in order"
check "$(code crates/nk-fabric/src | grep -c 'fn step_with')" -eq 1 \
    "one forwarding plane: the vSwitch and the ToR are one route table with one loop"
check "$(code crates/nk-fabric/src | grep -cE 'struct Trunk|UplinkStats|uplink_tx')" -eq 0 \
    "one forwarding plane: no trunk type, uplink counters or uplink burst path beside the table"
check "$(code crates | grep -c 'NsmInstance')" -eq 0 \
    "one NQE front end: the host stores nk-service's NSM type, with no dispatch layer of its own"
check "$(code crates | grep -c 'NSM_SOCKET_ID_BASE: u32 =')" -eq 1 \
    "one NQE front end: one base for NSM-allocated guest socket ids"
check "$(code crates/nk-service/src | grep -c '\.pop_requests(')" -eq 1 \
    "one NQE front end: both NSM flavours drain requests through one call"
check "$(code crates | grep -c 'pending_events')" -eq 0 \
    "one rule for a full NQE ring: nothing outside nk-queue parks responses"
# shellcheck disable=SC2086 # one directory per word
check "$(code $not_nk_queue | grep -cE "$inspects_respond")" -eq 0 \
    "one rule for a full NQE ring: respond never refuses, so no caller outside nk-queue inspects its result"
check "$(code crates/nk-shmem/src/region.rs | grep -c 'Mutex<')" -eq 1 \
    "one lock per hugepage access: the allocator and the bytes sit behind one Mutex"
check "$(code crates/nk-shmem/src/region.rs | grep -cE 'BTreeMap|DetMap')" -eq 0 \
    "one lock hold and no search per hugepage hop: the allocator is the two line bitmaps, no extent tree or chunk map"
check "$(code crates/nk-guest/src | grep -c 'region.clone()')" -eq 0 \
    "one lock hold and no search per hugepage hop: GuestLib borrows its region, it never clones the handle per call"
check "$(code crates/nk-service/src/service.rs | grep -c '\.free(')" -eq 0 \
    "one lock hold and no search per hugepage hop: a Send's lend frees its chunk and a failed fill frees its own; only the front end's failed-Send reply frees"
check "$(code crates/nk-queue/src/spsc.rs | grep -cw 'unsafe')" -eq 4 \
    "four unsafe sites in the SPSC ring, the interleaving checker's scope (ROADMAP item 3)"
# shellcheck disable=SC2046 # one directory per word
check "$(code $(find crates -mindepth 1 -maxdepth 1 -type d ! -name shims) | grep -c 'Deserialize')" -eq 0 \
    "JSON goes one way: no crate reads JSON back into a typed value"
check "$(code crates/shims/serde-derive/src | grep -c 'proc_macro_derive')" -eq 1 \
    "JSON goes one way: the derive shim derives Serialize alone"
check "$(sed -s -n '/^\[dependencies\]/,/^\[/p' crates/nk-sim/Cargo.toml crates/nk-workload/Cargo.toml | grep -c '^serde')" -eq 0 \
    "JSON goes one way: nk-sim and nk-workload write nothing, so they do not depend on serde"
check "$(code crates | grep -c 'dyn CongestionControl')" -eq 0 \
    "a connection pays once: congestion control is held inline as one enum, never boxed per connection"
check "$(code crates/nk-netstack/src/stack.rs | grep -c 'timers.insert(')" -eq 1 \
    "a connection pays once: only a connection's poll arms the lazy timer set; records expire from the FIFO"

exit "$fails"
