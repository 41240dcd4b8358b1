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
check "$(code crates/nk-fabric/src | grep -c 'fn step\b')" -eq 1 \
    "one forwarding plane: the vSwitch and the ToR are one route table with one loop"
check "$(code crates | grep -cE 'FlowTable|observe_flow|FLOW_K|fn step_with')" -eq 0 \
    "the recorder taps no datapath; it writes only between steps"
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
check "$(code crates/nk-service/src crates/nk-guest/src | grep -cE '(BTreeMap|DetMap)<\(?(VmId, )?SocketId')" -eq 1 \
    "one record per socket on the NQE path: beside the slot tables, only ServiceLib's stack-socket index (by_stack) is a socket map"
check "$(code crates src examples | grep -cE 'SharedMemNsm|SharedMemStats|shm_stats|ShmSocket')" -eq 0 \
    "one NSM request handler: the shared-memory NSM is ServiceLib over a LocalStack, with no handler, socket type or stats of its own"
check "$(code crates/nk-service/src/service.rs crates/nk-guest/src/guestlib.rs | grep -cE '^ +(socks|sockets): SlotTable<')" -eq 2 \
    "one record per socket on the NQE path: GuestLib's and ServiceLib's socket records sit in a SlotTable, one hash away, and a closed socket's slot and queues go to the next"
check "$(code crates/nk-netstack/src/stack.rs crates/nk-service/src/service.rs crates/nk-engine/src/table.rs \
    | grep -cE '^ +(ids|demux|listeners|by_stack|entries): DetMap<')" -eq 5 \
    "a lookup costs one hash: TcpStack's ids, demux and listeners, ServiceLib's by_stack and ConnTable's entries are DetMaps (detmap.rs's list), never B-trees"
check "$(code crates/nk-service/src crates/nk-guest/src | grep -cE 'ConnCtx|pending_send|owed_credit')" -eq 0 \
    "one record per socket on the NQE path: no context, send-queue or owed-credit map beside the record"
check "$(code crates/nk-shmem/src/region.rs | grep -c 'Mutex<')" -eq 1 \
    "one lock per hugepage access: the allocator and the chunks' runs sit behind one Mutex"
check "$(code crates/nk-shmem/src/region.rs | grep -cE 'BTreeMap|DetMap')" -eq 0 \
    "one lock hold and no search per hugepage hop: the allocator is the two line bitmaps, no extent tree or chunk map"
check "$(code crates/nk-guest/src | grep -c 'region.clone()')" -eq 0 \
    "one lock hold and no search per hugepage hop: GuestLib borrows its region, it never clones the handle per call"
check "$(code crates/nk-service/src/service.rs | grep -c '\.free(')" -eq 0 \
    "one lock hold and no search per hugepage hop: a Send's lend frees its chunk and a failed fill frees its own; only the front end's failed-Send reply frees"
# A copying hop: a capacity-sized byte arena in the region, or a byte-slice
# region or stack call (or a `to_vec`) in the NSM's send, flush and receive
# hops, which move `Payload` runs by reference.
# shellcheck disable=SC2016 # awk's own $0
check "$(( $(code crates/nk-shmem/src/region.rs | grep -c 'Box<\[u8\]>') + $(code crates/nk-service/src/service.rs \
    | awk '/^    fn (handle_send|flush|pump_socket)\(/ { on = 1 } on { print } on && /^    }$/ { on = 0 }' \
    | grep -cE 'to_vec\(|\.(send|recv|read|read_at|read_and_free|alloc_and_write)\(') ))" -eq 0 \
    "the NSM hops copy nothing: hugepage chunks hold runs, not an arena, and ServiceLib moves them by reference"
check "$(code crates/nk-queue/src/spsc.rs | grep -cw 'unsafe')" -eq 4 \
    "four unsafe sites in the SPSC ring, the interleaving checker's scope (ROADMAP item 3)"
# shellcheck disable=SC2046 # one directory per word
check "$(code $(find crates -mindepth 1 -maxdepth 1 -type d ! -name shims) | grep -c 'Deserialize')" -eq 0 \
    "JSON goes one way: no crate reads JSON back into a typed value"
check "$(find crates -name Cargo.toml -exec cat {} + | grep -cE 'proc-macro *= *true')" -eq 0 \
    "JSON goes one way, written by macro_rules!: no crate under crates/ is a proc macro"
check "$(sed -s -n '/^\[dependencies\]/,/^\[/p' crates/nk-sim/Cargo.toml crates/nk-workload/Cargo.toml | grep -c '^serde')" -eq 0 \
    "JSON goes one way: nk-sim and nk-workload write nothing, so they do not depend on serde"
check "$(code crates | grep -c 'dyn CongestionControl')" -eq 0 \
    "a connection pays once: congestion control is held inline as one enum, never boxed per connection"
check "$(code crates | grep -cE 'ce_mark|ece_pending|ce_last|ecn_echo|Dctcp')" -eq 0 \
    "the stack carries only the congestion signals the fabric raises"
check "$(code crates/nk-netstack/src/stack.rs | grep -c 'timers.push(')" -eq 1 \
    "a connection pays once: only a connection's poll arms the lazy timer heap; TIME-WAIT tuples expire from the FIFO"
check "$(code crates/nk-netstack/src/stack.rs | grep -cE 'Box<ConnSlot>|Box<TimeWaitRecord>|BTreeSet')" -eq 0 \
    "a segment costs one hash: slots hold connections by arena index, and timers are a heap, not a tree"
check "$(code crates/nk-netstack | grep -cE 'TimeWaitRecord|SocketEntry::TimeWait')" -eq 0 \
    "TIME-WAIT is a tuple, not a socket kind"
# shellcheck disable=SC2016 # awk's own $0
check "$(code crates/nk-netstack/src/stack.rs \
    | awk '/^    (pub )?fn (process_incoming|deliver|transmit)\(/ { on = 1 } on { print } on && /^    }$/ { on = 0 }' \
    | grep -cE '\b(ids|sockets)\.')" -eq 0 \
    "a segment costs one hash: the per-segment and per-timer paths carry slots and never look a socket id up (ids, or sockets as the table was named)"
check "$(cat crates/nk-workload/tests/*.rs tests/*.rs | grep -cE 'evacuate_host_with_faults|Cluster::new')" -eq 0 \
    "one determinism oracle: no test builds a cluster or drives a faulted evacuation by hand; a fault is a scripted PlannedOp::Evacuate"
check "$(cat crates/nk-workload/tests/*.rs tests/*.rs | grep -cE 'struct \w*RunReport')" -eq 0 \
    "one determinism oracle: no test diffs a report of its own; runs compare whole ScenarioReports through rows::assert_mode_invariant"
check "$(code crates/bench/src | grep -cE 'nk_cluster|Cluster::new')" -eq 0 \
    "one traffic driver: experiments runs every system run through Scenario"
check "$(sed -n '/^\[dependencies\]/,/^\[/p' crates/bench/Cargo.toml | grep -c 'nk-cluster')" -eq 0 \
    "one traffic driver: experiments runs every system run through Scenario, so nk-bench does not depend on nk-cluster"
check "$(code crates src | grep -cE 'struct LinkFault|pub (reorder_extra_us|core_engine_cores|max_rounds|uplink_rate_gbps):|fn with_default_link')" -eq 0 \
    "a link is described once, and a setting nothing sets is a constant"
check "$(code crates/nk-service/src/service.rs | grep -c 'send_payload(')" -eq 1 \
    "a Send reaches the stack through one loop: a record's queued runs, pushed by its flush"
check "$(code crates/nk-netstack/src/local.rs | grep -c 'StackEvent::PeerClosed')" -eq 1 \
    "the stack never times EOF: LocalStack raises PeerClosed when the FIN arrives, and ServiceLib holds EOF behind the bytes"
check "$(code crates | grep -c 'RX_CHUNK')" -eq 0 \
    "receive is announced by the credit: one DataReceived carries what the stack holds, up to the receive credit and the region, never a fixed piece"
check "$(code crates | grep -cE 'fn .*transplantable')" -eq 0 \
    "a warm export's rule is written once: each layer's snapshot refuses what cannot move, and no predicate restates it"
check "$(code crates/nk-host/src | grep -c 'aliases:')" -eq 0 \
    "adopted addresses have one record: the switch's /32 routes, with no alias map beside them in the host"
check "$(code crates | grep -cE 'sample_vm|OUTSTANDING_CAP|struct Histogram')" -eq 0 \
    "the recorder keeps what it observed; latency returns only as stamps (item 1)"
check "$(code crates | grep -cE 'StackKind::FairShare|VmWindowRegistry|connect_with_cc')" -eq 0 \
    "fair sharing is one setting: an NSM whose cc is VmShared keeps a window per VM, with no stack kind, registry or connect-time cc beside it"

check "$(code crates src | grep -cE 'Placer|ClusterPolicy|Epoch::|enable_pool_accounting|take_uplink_bytes|with_policy')" -eq 0 \
    "decisions are host-scope: no cluster placer, no second delta reader beside the host control plane"
exit "$fails"
