//! The NQE switching engine.

use crate::table::{ConnEntry, ConnTable};
use nk_queue::{RequesterEnd, ResponderEnd, WakeState};
use nk_shmem::HugepageRegion;
use nk_sim::TokenBucket;
use nk_types::{
    ConnKey, IsolationPolicy, NkError, NkResult, Nqe, NsmId, OpResult, OpType, QueueSetId,
    SocketId, VmId,
};
use std::collections::{BTreeMap, VecDeque};

/// Per-VM switching statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VmSwitchStats {
    /// Request NQEs forwarded to NSMs.
    pub nqes_forwarded: u64,
    /// Response NQEs delivered back to the VM.
    pub nqes_delivered: u64,
    /// Payload bytes forwarded on the send path.
    pub bytes_forwarded: u64,
    /// NQEs deferred by rate limiting (they stay queued and are retried).
    pub throttled: u64,
    /// Request NQEs dropped because no NSM was serving the VM (each is
    /// answered with an error completion so the guest observes the failure).
    pub dropped: u64,
}

/// Aggregate CoreEngine statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Total NQEs switched in both directions.
    pub nqes_switched: u64,
    /// Poll batches executed.
    pub poll_rounds: u64,
    /// Virtual interrupts (wake-ups) delivered to guest NK devices.
    pub wakeups: u64,
    /// Connections reset because their NSM crashed (fault injection).
    pub conn_resets: u64,
}

struct VmPort {
    /// Switch-side ends of the VM's queue sets (one per vCPU).
    ends: Vec<ResponderEnd>,
    wake: WakeState,
    /// Egress bandwidth limiter (bytes), when the policy asks for one.
    rate_bucket: Option<TokenBucket>,
    /// Egress operation limiter (NQEs per second), when the policy asks.
    ops_bucket: Option<TokenBucket>,
    /// NQEs that could not be forwarded yet (rate limit or full NSM queue);
    /// retried first, in order, on later polls.
    stalled: Vec<VecDeque<Nqe>>,
    /// The hugepage region shared between the VM and its NSMs, so payload of
    /// requests dropped by the engine (NSM crashed) can be reclaimed.
    region: Option<HugepageRegion>,
    tenant: u32,
    /// The NSM serving the VM's *new* connections (`None` until mapped).
    nsm: Option<NsmId>,
    /// Inside a warm-migration freeze window: no *fresh* requests are
    /// popped from the VM's queues (in-flight work still drains — stalled
    /// NQEs retry and responses deliver), so the snapshot closes over a
    /// quiescent pipeline.
    frozen: bool,
    stats: VmSwitchStats,
    /// `stats.bytes_forwarded` as the host control plane last saw it.
    byte_mark: u64,
}

impl VmPort {
    /// The one way a response reaches the guest: onto the queue set it
    /// names, where a full ring parks it (`nk_queue` never refuses one), then
    /// a wake, counted into `wakeups` when it delivered an interrupt.
    fn hand_off(&mut self, nqe: Nqe, wakeups: &mut u64) {
        let qs = nqe.queue_set.raw() as usize % self.ends.len().max(1);
        #[expect(
            clippy::indexing_slicing,
            reason = "modulo the ends; a VM has at least one"
        )]
        let _ = self.ends[qs].respond(nqe);
        *wakeups += self.wake.wake() as u64;
    }
}

struct NsmPort {
    /// Switch-side ends of the NSM's queue sets (one per vCPU).
    ends: Vec<RequesterEnd>,
}

/// The CoreEngine software switch.
///
/// Everything the engine knows about a VM — queue ends, mapping, freeze
/// flag, counters and their epoch mark — is one `VmPort`, so a VM leaves
/// (or moves to a shard) with one map entry. Both port maps are `BTreeMap`s
/// and every polling round visits VMs and NSMs in ascending id order — the
/// engine is bit-for-bit deterministic across runs, which the seeded
/// fault-injection scenarios rely on.
///
/// The fixed id order is also what makes the engine *decomposable*: VMs of
/// disjoint NSM share groups never touch each other's ports, table entries
/// or queues, so polling a subset of the id space commutes with polling the
/// rest. [`CoreEngine::extract_shard`] carves one share group out into its
/// own engine and [`CoreEngine::absorb_shard`] merges it back, with the
/// whole-engine poll and the group-by-group polls producing byte-identical
/// state.
pub struct CoreEngine {
    vms: BTreeMap<VmId, VmPort>,
    nsms: BTreeMap<NsmId, NsmPort>,
    table: ConnTable,
    isolation: IsolationPolicy,
    batch: usize,
    stats: EngineStats,
    scratch: Vec<Nqe>,
}

impl CoreEngine {
    /// A CoreEngine with the given isolation policy and NQE batch size.
    pub fn new(isolation: IsolationPolicy, batch: usize) -> Self {
        CoreEngine {
            vms: BTreeMap::new(),
            nsms: BTreeMap::new(),
            table: ConnTable::new(),
            isolation,
            batch: batch.max(1),
            stats: EngineStats::default(),
            scratch: Vec::new(),
        }
    }

    /// Register a VM's NK device (switch-side queue ends, at least one, plus
    /// its wake flag).
    ///
    /// `region` is the hugepage region the VM shares with its NSMs; the
    /// engine uses it to reclaim the payload of requests it has to drop
    /// (e.g. a `Send` in flight when the serving NSM crashed). `None` keeps
    /// the engine out of payload management entirely.
    #[allow(
        clippy::too_many_arguments,
        reason = "each argument is an independent registration input, and nkbench calls this signature by position"
    )]
    pub fn register_vm(
        &mut self,
        vm: VmId,
        ends: Vec<ResponderEnd>,
        wake: WakeState,
        tenant: u32,
        rate_limit_gbps: Option<f64>,
        region: Option<HugepageRegion>,
        now_ns: u64,
    ) -> NkResult<()> {
        if self.vms.contains_key(&vm) {
            return Err(NkError::AlreadyRegistered);
        } else if ends.is_empty() {
            return Err(NkError::BadConfig);
        }
        let rate_bucket = match (&self.isolation, rate_limit_gbps) {
            (IsolationPolicy::RateLimited, Some(gbps)) => {
                let bytes_per_sec = gbps * 1e9 / 8.0;
                // One millisecond's worth, and at least 64 KiB; a larger
                // send passes a full bucket and leaves it in debt.
                let burst = (bytes_per_sec / 1_000.0).max(64.0 * 1024.0);
                Some(TokenBucket::new(bytes_per_sec, burst, now_ns))
            }
            _ => None,
        };
        let ops_bucket = match &self.isolation {
            IsolationPolicy::OpsLimited { max_ops_per_sec } => Some(TokenBucket::new(
                *max_ops_per_sec as f64,
                (*max_ops_per_sec as f64 / 100.0).max(1.0),
                now_ns,
            )),
            _ => None,
        };
        let stalled = (0..ends.len()).map(|_| VecDeque::new()).collect();
        self.vms.insert(
            vm,
            VmPort {
                ends,
                wake,
                rate_bucket,
                ops_bucket,
                stalled,
                region,
                tenant,
                nsm: None,
                frozen: false,
                stats: VmSwitchStats::default(),
                byte_mark: 0,
            },
        );
        Ok(())
    }

    /// Deregister a VM: its port (queue ends, mapping, freeze flag, mark)
    /// is dropped and its connections are removed from the table.
    pub fn deregister_vm(&mut self, vm: VmId) -> NkResult<()> {
        self.vms.remove(&vm).ok_or(NkError::NotFound)?;
        self.table.remove_vm(vm);
        Ok(())
    }

    /// Register an NSM's NK device (switch-side queue ends, at least one).
    pub fn register_nsm(&mut self, nsm: NsmId, ends: Vec<RequesterEnd>) -> NkResult<()> {
        if self.nsms.contains_key(&nsm) {
            return Err(NkError::AlreadyRegistered);
        } else if ends.is_empty() {
            return Err(NkError::BadConfig);
        }
        self.nsms.insert(nsm, NsmPort { ends });
        Ok(())
    }

    /// Assign a VM to an NSM (statically by the operator or dynamically by a
    /// load-balancing policy, §4.3), or re-map it to a different one ("a
    /// user can switch her NSM on the fly", §3): existing connections stay
    /// pinned to their old NSM, new connections use the new one. `NotFound`
    /// unless both are registered.
    pub fn map_vm(&mut self, vm: VmId, nsm: NsmId) -> NkResult<()> {
        if !self.nsms.contains_key(&nsm) {
            return Err(NkError::NotFound);
        }
        self.vms.get_mut(&vm).ok_or(NkError::NotFound)?.nsm = Some(nsm);
        Ok(())
    }

    /// Hard-crash an NSM: its queue ends are dropped and every connection
    /// pinned to it is torn out of the table, with a [`NkError::ConnReset`]
    /// error event delivered to the owning guest socket. Returns the number
    /// of connections reset. The NSM id may be registered again afterwards
    /// (restart with fresh queues).
    pub fn crash_nsm(&mut self, nsm: NsmId) -> NkResult<usize> {
        self.nsms.remove(&nsm).ok_or(NkError::NotFound)?;
        let mut resets = 0;
        for key in self.table.remove_nsm(nsm) {
            let vm = VmId(key.entity);
            let Some(port) = self.vms.get_mut(&vm) else {
                continue;
            };
            resets += 1;
            let ev = Nqe::error_event(vm, key.queue_set, key.socket, NkError::ConnReset);
            port.hand_off(ev, &mut self.stats.wakeups);
        }
        self.stats.conn_resets += resets as u64;
        Ok(resets)
    }

    /// True when an NSM with this id is currently registered.
    pub fn has_nsm(&self, nsm: NsmId) -> bool {
        self.nsms.contains_key(&nsm)
    }

    /// The NSM currently mapped to serve a VM's new connections.
    pub fn nsm_of(&self, vm: VmId) -> Option<NsmId> {
        self.vms.get(&vm).and_then(|p| p.nsm)
    }

    /// VMs currently mapped onto `nsm`, in id order.
    pub fn mapped_vms(&self, nsm: NsmId) -> Vec<VmId> {
        let mapped = self.vms.iter().filter(|(_, p)| p.nsm == Some(nsm));
        mapped.map(|(v, _)| *v).collect()
    }

    /// Request NQEs parked in per-VM stall queues awaiting retry (throttled
    /// or backpressured). Used by conservation invariants in tests.
    pub fn stalled_nqes(&self) -> usize {
        self.vms
            .values()
            .map(|p| p.stalled.iter().map(|q| q.len()).sum::<usize>())
            .sum()
    }

    /// Request NQEs parked in one VM's stall queues. The control plane's
    /// load monitor attributes these to the NSM serving the VM as a
    /// backpressure signal.
    pub fn stalled_nqes_of(&self, vm: VmId) -> usize {
        self.vms
            .get(&vm)
            .map(|p| p.stalled.iter().map(|q| q.len()).sum())
            .unwrap_or(0)
    }

    /// Responses parked behind one VM's full rings, waiting for its guest.
    pub fn parked_responses_of(&self, vm: VmId) -> usize {
        let ends = self.vms.get(&vm).map(|p| &p.ends);
        ends.into_iter().flatten().map(ResponderEnd::parked).sum()
    }

    /// Move what one VM has parked onto its rings as far as they have room;
    /// returns how many NQEs moved.
    pub fn flush_vm(&mut self, vm: VmId) -> usize {
        let ends = self.vms.get_mut(&vm).map(|p| &mut p.ends);
        ends.into_iter().flatten().map(ResponderEnd::flush).sum()
    }

    /// The switch-side ends of every VM's and every NSM's queue sets, in id
    /// order: the host pairs them with the guest's and ServiceLib's ends to
    /// rewind the empty rings.
    #[expect(
        clippy::type_complexity,
        reason = "one walk per port map, borrowed together"
    )]
    pub fn queue_ends_mut(
        &mut self,
    ) -> (
        impl Iterator<Item = (VmId, &mut [ResponderEnd])> + '_,
        impl Iterator<Item = (NsmId, &mut [RequesterEnd])> + '_,
    ) {
        (
            self.vms.iter_mut().map(|(vm, p)| (*vm, &mut p.ends[..])),
            self.nsms.iter_mut().map(|(nsm, p)| (*nsm, &mut p.ends[..])),
        )
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Per-VM statistics.
    pub fn vm_stats(&self, vm: VmId) -> Option<VmSwitchStats> {
        self.vms.get(&vm).map(|p| p.stats)
    }

    /// Payload bytes the VM forwarded since the last call (0 for an
    /// unregistered VM); moves the mark. The mark lives in the port beside
    /// the counter, so a VM that left and registered again reads from zero.
    pub fn take_bytes_forwarded(&mut self, vm: VmId) -> u64 {
        let Some(port) = self.vms.get_mut(&vm) else {
            return 0;
        };
        let total = port.stats.bytes_forwarded;
        total - std::mem::replace(&mut port.byte_mark, total)
    }

    /// Number of connections currently tracked.
    pub fn connections(&self) -> usize {
        self.table.len()
    }

    /// Connections a VM still has pinned, across all NSMs. This is the
    /// drain counter of a cross-host migration: the VM's source-side share
    /// retires when it reaches zero.
    pub fn pinned_connections_of(&self, vm: VmId) -> usize {
        self.table.connections_for_vm(vm)
    }

    /// Connections pinned to the `(vm, nsm)` share.
    pub fn pinned_connections(&self, vm: VmId, nsm: NsmId) -> usize {
        self.table.connections_for_vm_nsm(vm, nsm)
    }

    /// Connections pinned to `nsm` from any VM.
    pub fn pinned_connections_for_nsm(&self, nsm: NsmId) -> usize {
        self.table.connections_for_nsm(nsm)
    }

    /// Tenant id a VM registered with (used by shared-memory colocation
    /// detection).
    pub fn tenant_of(&self, vm: VmId) -> Option<u32> {
        self.vms.get(&vm).map(|p| p.tenant)
    }

    // ---- Warm migration: freeze window + entry transplant --------------------

    /// Open or close a warm-migration freeze window on a VM. Frozen VMs
    /// have no fresh requests popped from their queues; already-admitted
    /// work (stalled NQEs, NSM responses) keeps draining, so a few poll
    /// rounds after freezing the VM's pipeline is quiescent and
    /// snapshot-consistent. A no-op for an unregistered VM.
    pub fn set_frozen(&mut self, vm: VmId, frozen: bool) {
        if let Some(port) = self.vms.get_mut(&vm) {
            port.frozen = frozen;
        }
    }

    /// True while the VM sits inside a freeze window.
    pub fn is_frozen(&self, vm: VmId) -> bool {
        self.vms.get(&vm).is_some_and(|p| p.frozen)
    }

    /// Every connection-table entry of a VM, sorted (non-destructive).
    /// Warm migration pre-validates transplantability against this view
    /// before any state is torn out.
    pub fn vm_entries(&self, vm: VmId) -> Vec<(ConnKey, ConnEntry)> {
        self.table.entries_for_vm(vm)
    }

    /// Remove and return every connection-table entry of a VM — the
    /// extraction half of a warm migration. The entries unpin immediately
    /// (the drain counters drop to zero); the caller re-installs them on
    /// the destination host's engine.
    pub fn extract_vm_entries(&mut self, vm: VmId) -> Vec<(ConnKey, ConnEntry)> {
        self.table.extract_vm(vm)
    }

    /// The NSM queue set a tuple would pin to on `nsm` — resolved ahead of
    /// [`CoreEngine::install_entry`] so the ServiceLib side can be wired to
    /// the same set before the pin lands.
    pub fn nsm_queue_set_for(&self, key: &ConnKey, nsm: NsmId) -> NkResult<QueueSetId> {
        let sets = self.nsms.get(&nsm).ok_or(NkError::NotFound)?.ends.len();
        let (vm, qs, sock) = (VmId(key.entity), key.queue_set, key.socket);
        Ok(Self::pick_nsm_queue_set(vm, qs, sock, sets.max(1)))
    }

    /// Install a transplanted connection-table entry: the tuple pins to
    /// `nsm` with the NSM-side socket already known. The NSM queue set is
    /// chosen with the same hash new connections use, so transplanted and
    /// fresh tuples of one socket land identically; it is returned for the
    /// ServiceLib side to mirror.
    pub fn install_entry(
        &mut self,
        key: ConnKey,
        nsm: NsmId,
        nsm_socket: SocketId,
    ) -> NkResult<QueueSetId> {
        let qs = self.nsm_queue_set_for(&key, nsm)?;
        let entry = ConnEntry {
            nsm,
            nsm_queue_set: qs,
            nsm_socket: Some(nsm_socket),
        };
        if !self.table.install(key, entry) {
            return Err(NkError::AlreadyRegistered);
        }
        Ok(qs)
    }

    // ---- Share-lane decomposition --------------------------------------------

    /// Registered VM ids, in order — the census share-lane grouping runs
    /// over.
    pub fn vm_ids(&self) -> Vec<VmId> {
        self.vms.keys().copied().collect()
    }

    /// Every ⟨VM, NSM⟩ relation the engine holds: the VM's current mapping
    /// plus one edge per pinned tuple. Two NSMs reachable from one VM must
    /// land in the same share lane (they share the VM's ports, hugepage
    /// region and table entries), so lane grouping takes the connected
    /// components of exactly these edges.
    pub fn vm_nsm_edges(&self) -> Vec<(VmId, NsmId)> {
        let mapped = self.vms.iter().filter_map(|(v, p)| Some((*v, p.nsm?)));
        mapped.chain(self.table.vm_nsm_pairs()).collect()
    }

    /// Carve one share group — `vms` with their ports and table entries,
    /// plus the `nsms` ports — out into a
    /// self-contained engine, to be polled on a worker thread as part of a
    /// share lane. The group must be closed under [`CoreEngine::vm_nsm_edges`]
    /// (no edge may cross into the remainder); given that, polling the
    /// extracted engine and the remainder in any interleaving is
    /// byte-identical to polling the whole engine, because the two halves
    /// touch disjoint ports, queues and table entries and id order is
    /// preserved within each half.
    ///
    /// The shard starts with zeroed [`EngineStats`];
    /// [`CoreEngine::absorb_shard`] adds them back.
    pub fn extract_shard(&mut self, vms: &[VmId], nsms: &[NsmId]) -> CoreEngine {
        let mut shard = CoreEngine::new(self.isolation.clone(), self.batch);
        for id in nsms {
            if let Some(port) = self.nsms.remove(id) {
                shard.nsms.insert(*id, port);
            }
        }
        for vm in vms {
            if let Some(port) = self.vms.remove(vm) {
                shard.vms.insert(*vm, port);
            }
            for (key, entry) in self.table.extract_vm(*vm) {
                shard.table.install(key, entry);
            }
        }
        shard
    }

    /// Merge a shard produced by [`CoreEngine::extract_shard`] back in. The
    /// shard's switch counters are added; its `poll_rounds` is *not* — the
    /// resident engine's own counter already tracks the rounds of the
    /// undecomposed poll loop.
    pub fn absorb_shard(&mut self, mut shard: CoreEngine) {
        self.nsms.append(&mut shard.nsms);
        let vms: Vec<VmId> = shard.vms.keys().copied().collect();
        for vm in vms {
            for (key, entry) in shard.table.extract_vm(vm) {
                self.table.install(key, entry);
            }
        }
        self.vms.append(&mut shard.vms);
        self.stats.nqes_switched += shard.stats.nqes_switched;
        self.stats.wakeups += shard.stats.wakeups;
        self.stats.conn_resets += shard.stats.conn_resets;
    }

    /// Hash a VM tuple onto one of `sets` NSM queue sets (§4.3 step 2) —
    /// shared by fresh pinning and warm-migration installation.
    fn pick_nsm_queue_set(
        vm: VmId,
        queue_set: QueueSetId,
        socket: SocketId,
        sets: usize,
    ) -> QueueSetId {
        let h = (vm.raw() as usize)
            .wrapping_mul(31)
            .wrapping_add(queue_set.raw() as usize)
            .wrapping_mul(31)
            .wrapping_add(socket.raw() as usize);
        QueueSetId((h % sets) as u8)
    }

    /// One polling round over every VM and NSM queue set (the paper's
    /// CoreEngine "uses polling across all queue sets to maximize
    /// performance", §4.3). Returns the number of NQEs switched.
    pub fn poll(&mut self, now_ns: u64) -> usize {
        self.stats.poll_rounds += 1;
        let mut switched = 0;
        switched += self.forward_requests(now_ns);
        switched += self.deliver_responses();
        self.stats.nqes_switched += switched as u64;
        switched
    }

    /// VM → NSM direction, in fixed ascending-id order: a rotating start
    /// would couple every VM's poll position to the whole host's VM census
    /// and make whole-engine and per-share-group polling diverge. Fairness
    /// under a full NSM queue comes from the per-VM stall queues alone.
    ///
    /// A guest speaks only for itself: every popped request is stamped with
    /// the id of the VM port it came from before anything reads it, so the
    /// connection table, the NSM's socket maps and its choice of hugepage
    /// region never see a VM id the guest chose.
    #[expect(
        clippy::indexing_slicing,
        reason = "qs runs below the ends; each has a stall queue"
    )]
    fn forward_requests(&mut self, now_ns: u64) -> usize {
        let mut switched = 0;
        for (&vm, port) in self.vms.iter_mut() {
            let Some(nsm_id) = port.nsm else {
                continue;
            };
            for qs in 0..port.ends.len() {
                // One queue per set keeps per-connection order: admitted
                // NQEs go out from the front, a stall leaves the rest queued
                // behind it, and a fresh batch joins only once the queue is
                // empty — never inside a freeze window, where only
                // already-admitted work drains until the VM thaws (or its
                // queues move with it).
                'queue_set: loop {
                    while let Some(nqe) = port.stalled[qs].pop_front() {
                        let (nsms, table) = (&mut self.nsms, &mut self.table);
                        let wakeups = &mut self.stats.wakeups;
                        let forward =
                            Self::try_forward(nsms, table, port, nsm_id, nqe, now_ns, wakeups);
                        if let Err(nqe) = forward {
                            port.stalled[qs].push_front(nqe);
                            break 'queue_set;
                        }
                        switched += 1;
                    }
                    if port.frozen || port.ends[qs].pop_requests(&mut self.scratch, self.batch) == 0
                    {
                        break;
                    }
                    port.stalled[qs].extend(self.scratch.drain(..).map(|nqe| Nqe { vm, ..nqe }));
                }
            }
        }
        switched
    }

    /// Attempt to forward one request NQE; a throttled or backpressured NQE
    /// comes back as `Err` for retry. NQEs whose target NSM no longer exists
    /// are dropped with an error reply so the guest fails fast instead of
    /// waiting on a queue nobody drains.
    fn try_forward(
        nsms: &mut BTreeMap<NsmId, NsmPort>,
        table: &mut ConnTable,
        port: &mut VmPort,
        nsm_id: NsmId,
        nqe: Nqe,
        now_ns: u64,
        wakeups: &mut u64,
    ) -> Result<(), Nqe> {
        // Isolation: the bandwidth cap applies to the payload bytes a VM
        // sends (a `RecvConsumed`'s size is receive credit, not egress), the
        // op cap to NQEs.
        if let Some(bucket) = &mut port.rate_bucket {
            if nqe.op.carries_data() && !bucket.try_charge(nqe.size as f64, now_ns) {
                port.stats.throttled += 1;
                return Err(nqe);
            }
        }
        if let Some(bucket) = &mut port.ops_bucket {
            if !bucket.try_consume(1.0, now_ns) {
                port.stats.throttled += 1;
                return Err(nqe);
            }
        }
        // Existing connections stay pinned to the NSM recorded in the table;
        // new connections use the VM's current mapping (so remapping a VM on
        // the fly only affects new connections, §3).
        let key = ConnKey::vm(nqe.vm, nqe.queue_set, nqe.socket);
        let (target_nsm, target_qs) = match table.get(&key) {
            Some(e) => (e.nsm, e.nsm_queue_set),
            None => {
                let Some(sets) = nsms.get(&nsm_id).map(|n| n.ends.len().max(1)) else {
                    // The VM's mapped NSM crashed and nothing replaced it
                    // yet: fail the request instead of pinning the tuple to
                    // a dead NSM.
                    Self::drop_with_error(port, &nqe, NkError::NsmUnavailable, wakeups);
                    return Ok(());
                };
                // Hash the VM tuple onto an NSM queue set (§4.3 step 2).
                let qs = Self::pick_nsm_queue_set(nqe.vm, nqe.queue_set, nqe.socket, sets);
                table.get_or_insert_with(key, || (nsm_id, qs));
                (nsm_id, qs)
            }
        };
        let Some(nsm) = nsms.get_mut(&target_nsm) else {
            // Pinned NSM vanished between table lookup and delivery (crash
            // mid-batch): unpin and fail the request.
            table.remove(&key);
            Self::drop_with_error(port, &nqe, NkError::ConnReset, wakeups);
            return Ok(());
        };
        let target_qs = target_qs.raw() as usize % nsm.ends.len().max(1);
        #[expect(
            clippy::indexing_slicing,
            reason = "modulo the ends; an NSM has at least one"
        )]
        nsm.ends[target_qs].submit(nqe).map_err(|_| nqe)?;
        port.stats.nqes_forwarded += 1;
        port.stats.bytes_forwarded += nqe.size as u64;
        Ok(())
    }

    /// Drop a request whose NSM is gone: reclaim its payload and answer the
    /// guest with an error completion (or nothing for fire-and-forget ops).
    fn drop_with_error(port: &mut VmPort, nqe: &Nqe, err: NkError, wakeups: &mut u64) {
        port.stats.dropped += 1;
        // A dropped Send's payload sits in the shared hugepages and nobody
        // downstream will ever free it.
        if nqe.op == OpType::Send && !nqe.data.is_null() {
            if let Some(region) = &port.region {
                let _ = region.free(nqe.data);
            }
        }
        let Some(mut reply) = Nqe::completion_for(nqe, OpResult::Err(err), 0) else {
            return;
        };
        // A failed Send still returns the reserved send-buffer budget.
        reply.size = nqe.size;
        port.hand_off(reply, wakeups);
    }

    /// NSM → VM direction. Responses parked behind a full guest ring move
    /// on first, so every VM port is flushed once per round, frozen or not.
    fn deliver_responses(&mut self) -> usize {
        let mut switched = 0;
        for end in self.vms.values_mut().flat_map(|p| p.ends.iter_mut()) {
            end.flush();
        }
        for end in self.nsms.values_mut().flat_map(|n| n.ends.iter_mut()) {
            // Drained in place (disjoint field borrows), no per-batch
            // allocation.
            while end.pop_responses(&mut self.scratch, self.batch) > 0 {
                for nqe in self.scratch.drain(..) {
                    let Some(port) = self.vms.get_mut(&nqe.vm) else {
                        continue;
                    };
                    let key = ConnKey::vm(nqe.vm, nqe.queue_set, nqe.socket);
                    // A socket's creation completion names its NSM-side
                    // socket (Figure 6, step 4). Other completions use
                    // `aux` for other things: an `Accepted` carries the new
                    // connection's guest id on the listener's tuple.
                    if nqe.op == OpType::SocketCreated && nqe.aux() != 0 {
                        self.table.complete(&key, nk_types::SocketId(nqe.aux()));
                    }
                    // A completed close ends the tuple's life: unpin it so
                    // per-(VM, NSM) drain counters actually reach zero
                    // instead of counting closed sockets forever.
                    if nqe.op == OpType::CloseComplete {
                        self.table.remove(&key);
                    }
                    port.stats.nqes_delivered += 1;
                    switched += 1;
                    port.hand_off(nqe, &mut self.stats.wakeups);
                }
            }
        }
        switched
    }
}

impl nk_sim::Pollable for CoreEngine {
    /// One switching round; the host's scheduler repeats this until the
    /// engine (and everything else) is quiescent.
    fn poll(&mut self, now_ns: u64) -> usize {
        CoreEngine::poll(self, now_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_queue::queue_set_pair;
    use nk_types::constants::NSM_SOCKET_ID_BASE;
    use nk_types::ops::op_data;
    use nk_types::{OpResult, OpType, SocketId};

    /// Wire one VM and one NSM through a CoreEngine; returns the guest-side
    /// requester end, the NSM-side responder end, and the engine.
    fn setup(
        isolation: IsolationPolicy,
        rate_limit: Option<f64>,
    ) -> (nk_queue::RequesterEnd, nk_queue::ResponderEnd, CoreEngine) {
        let (guest_end, vm_switch_end) = queue_set_pair(256);
        let (nsm_switch_end, nsm_end) = queue_set_pair(256);
        let mut ce = CoreEngine::new(isolation, 4);
        ce.register_vm(
            VmId(1),
            vec![vm_switch_end],
            WakeState::new(),
            0,
            rate_limit,
            None,
            0,
        )
        .unwrap();
        ce.register_nsm(NsmId(1), vec![nsm_switch_end]).unwrap();
        ce.map_vm(VmId(1), NsmId(1)).unwrap();
        (guest_end, nsm_end, ce)
    }

    fn request(op: OpType, sock: u32) -> Nqe {
        Nqe::new(op, VmId(1), QueueSetId(0), SocketId(sock))
    }

    /// Everything the guest end holds, completions before data events.
    fn responses(guest: &mut nk_queue::RequesterEnd) -> Vec<Nqe> {
        let mut out = Vec::new();
        guest.pop_responses(&mut out, usize::MAX);
        out
    }

    /// A guest's NQE names any queue set it likes: one the VM does not
    /// have is switched like any other, onto a queue set of the NSM and
    /// back onto one of the VM's own, never past either's ends. A VM or an
    /// NSM with no queue set at all is refused at registration.
    #[test]
    fn a_raw_nqe_naming_a_missing_queue_set_is_switched_not_a_panic() {
        let (mut guest, mut nsm, mut ce) = setup(IsolationPolicy::RoundRobin, None);
        let forged = Nqe::new(OpType::SocketCreate, VmId(1), QueueSetId(200), SocketId(7));
        guest.submit(forged).unwrap();
        ce.poll(0);
        let mut reqs = Vec::new();
        assert_eq!(nsm.pop_requests(&mut reqs, 8), 1);
        assert_eq!(reqs[0].queue_set, QueueSetId(200));
        nsm.respond(Nqe::completion_for(&reqs[0], OpResult::Ok, 42).unwrap())
            .unwrap();
        ce.poll(0);
        assert_eq!(responses(&mut guest)[0].op, OpType::SocketCreated);

        let vm = ce.register_vm(VmId(2), Vec::new(), WakeState::new(), 0, None, None, 0);
        assert_eq!(vm, Err(NkError::BadConfig));
        assert_eq!(
            ce.register_nsm(NsmId(2), Vec::new()),
            Err(NkError::BadConfig)
        );
    }

    #[test]
    fn switches_requests_and_responses() {
        let (mut guest, mut nsm, mut ce) = setup(IsolationPolicy::RoundRobin, None);
        guest.submit(request(OpType::SocketCreate, 7)).unwrap();
        ce.poll(0);
        let mut reqs = Vec::new();
        assert_eq!(nsm.pop_requests(&mut reqs, 8), 1);
        assert_eq!(reqs[0].op, OpType::SocketCreate);
        assert_eq!(ce.connections(), 1);

        // NSM answers; the engine routes it back to VM 1 and records the NSM
        // socket id from the completion's aux field.
        let comp = Nqe::completion_for(&reqs[0], OpResult::Ok, 42).unwrap();
        nsm.respond(comp).unwrap();
        ce.poll(0);
        let got = responses(&mut guest)[0];
        assert_eq!(got.op, OpType::SocketCreated);
        assert_eq!(got.aux(), 42);
        assert!(ce.stats().nqes_switched >= 2);
        assert_eq!(ce.vm_stats(VmId(1)).unwrap().nqes_forwarded, 1);
        assert_eq!(ce.vm_stats(VmId(1)).unwrap().nqes_delivered, 1);
    }

    /// Only `SocketCreated` names the NSM-side socket: an `Accepted` on a
    /// listener's tuple carries the new connection's guest id in `aux`, and
    /// must not overwrite the listener's record.
    #[test]
    fn an_accepted_event_keeps_the_listeners_nsm_socket() {
        let (mut guest, mut nsm, mut ce) = setup(IsolationPolicy::RoundRobin, None);
        guest.submit(request(OpType::SocketCreate, 7)).unwrap();
        ce.poll(0);
        let mut reqs = Vec::new();
        assert_eq!(nsm.pop_requests(&mut reqs, 8), 1);
        let created = Nqe::completion_for(&reqs[0], OpResult::Ok, 42).unwrap();
        nsm.respond(created).unwrap();
        let guest_id = NSM_SOCKET_ID_BASE | 1;
        let accepted = Nqe::new(OpType::Accepted, VmId(1), QueueSetId(0), SocketId(7))
            .with_op_data(op_data::pack(OpResult::Ok, guest_id));
        nsm.respond(accepted).unwrap();
        ce.poll(0);
        assert_eq!(responses(&mut guest).len(), 2);
        let entries = ce.vm_entries(VmId(1));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1.nsm_socket, Some(SocketId(42)));
    }

    #[test]
    fn unmapped_vm_is_not_polled() {
        let (guest, mut nsm, mut ce) = setup(IsolationPolicy::RoundRobin, None);
        ce.deregister_vm(VmId(1)).unwrap();
        // Re-register without a mapping.
        let (mut guest2, vm_end) = queue_set_pair(16);
        ce.register_vm(VmId(2), vec![vm_end], WakeState::new(), 0, None, None, 0)
            .unwrap();
        guest2.submit(request(OpType::SocketCreate, 1)).unwrap();
        ce.poll(0);
        let mut reqs = Vec::new();
        assert_eq!(nsm.pop_requests(&mut reqs, 8), 0);
        let _ = guest;
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let (_guest, _nsm, mut ce) = setup(IsolationPolicy::RoundRobin, None);
        let (_g, vm_end) = queue_set_pair(16);
        assert_eq!(
            ce.register_vm(VmId(1), vec![vm_end], WakeState::new(), 0, None, None, 0),
            Err(NkError::AlreadyRegistered)
        );
        let (nsm_end, _r) = queue_set_pair(16);
        assert_eq!(
            ce.register_nsm(NsmId(1), vec![nsm_end]),
            Err(NkError::AlreadyRegistered)
        );
        assert_eq!(ce.map_vm(VmId(1), NsmId(9)), Err(NkError::NotFound));
        // A VM that was never registered cannot be mapped or frozen, and
        // the attempt leaves nothing behind for a later registration.
        assert_eq!(ce.map_vm(VmId(7), NsmId(1)), Err(NkError::NotFound));
        ce.set_frozen(VmId(7), true);
        let (_g7, vm_end) = queue_set_pair(16);
        ce.register_vm(VmId(7), vec![vm_end], WakeState::new(), 0, None, None, 0)
            .unwrap();
        assert_eq!((ce.nsm_of(VmId(7)), ce.is_frozen(VmId(7))), (None, false));
    }

    #[test]
    fn connections_pin_to_a_stable_nsm_queue_set() {
        // NSM with 4 queue sets; all NQEs of one socket go to the same set.
        let (mut guest, vm_end) = queue_set_pair(256);
        let mut nsm_guest_ends = Vec::new();
        let mut nsm_ends = Vec::new();
        for _ in 0..4 {
            let (a, b) = queue_set_pair(256);
            nsm_guest_ends.push(a);
            nsm_ends.push(b);
        }
        let mut ce = CoreEngine::new(IsolationPolicy::RoundRobin, 4);
        ce.register_vm(VmId(1), vec![vm_end], WakeState::new(), 0, None, None, 0)
            .unwrap();
        ce.register_nsm(NsmId(1), nsm_guest_ends).unwrap();
        ce.map_vm(VmId(1), NsmId(1)).unwrap();

        for _ in 0..8 {
            guest.submit(request(OpType::Connect, 5)).unwrap();
        }
        ce.poll(0);
        let mut non_empty = 0;
        for end in nsm_ends.iter_mut() {
            let mut v = Vec::new();
            if end.pop_requests(&mut v, 64) > 0 {
                non_empty += 1;
                assert_eq!(v.len(), 8);
            }
        }
        assert_eq!(non_empty, 1, "one socket must map to exactly one queue set");
    }

    #[test]
    fn rate_limit_throttles_send_nqes() {
        // 0.001 Gbps cap: the second large send in the same instant stalls.
        let (mut guest, mut nsm, mut ce) = setup(IsolationPolicy::RateLimited, Some(0.001));
        let payload_nqe = request(OpType::Send, 3).with_data(nk_types::DataHandle(0), 50_000);
        guest.submit(payload_nqe).unwrap();
        guest.submit(payload_nqe).unwrap();
        ce.poll(0);
        let mut reqs = Vec::new();
        let delivered_now = nsm.pop_requests(&mut reqs, 16);
        assert!(delivered_now < 2, "both sends slipped through the cap");
        assert!(ce.vm_stats(VmId(1)).unwrap().throttled >= 1);

        // After enough virtual time the bucket refills and the stalled NQE
        // goes through, so nothing is lost.
        ce.poll(3_000_000_000);
        let delivered_later = nsm.pop_requests(&mut reqs, 16);
        assert_eq!(delivered_now + delivered_later, 2);
        // The bytes are read once.
        assert_eq!(ce.take_bytes_forwarded(VmId(1)), 100_000);
        assert_eq!(ce.take_bytes_forwarded(VmId(1)), 0);
    }

    /// A cap below one receive credit (256 KiB at 0.5 Gbps, burst 64 KiB)
    /// stalls nothing for good: a credit is not egress and passes, a send
    /// past the burst passes a full bucket, and the send and close behind
    /// it pass once refills pay its debt off.
    #[test]
    fn a_rate_limited_vm_forwards_credit_and_sends_past_the_burst() {
        let (mut guest, mut nsm, mut ce) = setup(IsolationPolicy::RateLimited, Some(0.5));
        let big = 256 * 1024;
        let credit = request(OpType::RecvConsumed, 3).with_data(nk_types::DataHandle::NULL, big);
        guest.submit(credit).unwrap();
        let send = request(OpType::Send, 3).with_data(nk_types::DataHandle(0), big);
        guest.submit(send).unwrap();
        let send = request(OpType::Send, 3).with_data(nk_types::DataHandle(0), 1_000);
        guest.submit(send).unwrap();
        guest.submit(request(OpType::Close, 3)).unwrap();
        ce.poll(0);
        let mut reqs = Vec::new();
        assert_eq!(nsm.pop_requests(&mut reqs, 16), 2);
        ce.poll(1_000_000);
        assert_eq!(
            nsm.pop_requests(&mut reqs, 16),
            0,
            "the big send's debt holds the rest"
        );
        ce.poll(10_000_000);
        assert_eq!(nsm.pop_requests(&mut reqs, 16), 2);
        let ops: Vec<OpType> = reqs.iter().map(|nqe| nqe.op).collect();
        let want = [
            OpType::RecvConsumed,
            OpType::Send,
            OpType::Send,
            OpType::Close,
        ];
        assert_eq!(ops, want);
    }

    #[test]
    fn ops_limit_caps_operations_per_second() {
        let (mut guest, mut nsm, mut ce) = setup(
            IsolationPolicy::OpsLimited {
                max_ops_per_sec: 100,
            },
            None,
        );
        for i in 0..50 {
            guest.submit(request(OpType::Connect, i)).unwrap();
        }
        // All submitted at t=0: only about the burst (1 op) goes through now.
        ce.poll(0);
        let mut reqs = Vec::new();
        let now = nsm.pop_requests(&mut reqs, 64);
        assert!(now <= 3, "{now} ops passed a 100/s cap instantaneously");
        // Over one second the rest drains at the configured rate.
        for ms in 1..=1000u64 {
            ce.poll(ms * 1_000_000);
        }
        let later = nsm.pop_requests(&mut reqs, 64);
        assert!(now + later >= 40, "only {} ops in a second", now + later);
    }

    #[test]
    fn wakeups_are_counted_when_device_is_armed() {
        let (mut guest, mut nsm, mut ce) = setup(IsolationPolicy::RoundRobin, None);
        guest.submit(request(OpType::SocketCreate, 1)).unwrap();
        ce.poll(0);
        let mut reqs = Vec::new();
        nsm.pop_requests(&mut reqs, 8);
        // Re-fetch the VM's wake flag: arm it as the guest device would when
        // it goes to sleep, then let the engine deliver a response.
        // (register_vm cloned the WakeState, so we reach it via the port.)
        // For the test we emulate by delivering twice: first without arming
        // (no wakeup counted), then after arming.
        let comp = Nqe::completion_for(&reqs[0], OpResult::Ok, 0).unwrap();
        nsm.respond(comp).unwrap();
        ce.poll(0);
        assert_eq!(ce.stats().wakeups, 0);
    }

    /// Crashing an NSM resets every connection pinned to it: the guest
    /// receives an ErrorEvent carrying ConnReset per connection, and the
    /// table forgets them.
    #[test]
    fn crash_nsm_resets_pinned_connections() {
        let (mut guest, mut nsm, mut ce) = setup(IsolationPolicy::RoundRobin, None);
        for sock in [1u32, 2, 3] {
            guest.submit(request(OpType::SocketCreate, sock)).unwrap();
        }
        ce.poll(0);
        let mut v = Vec::new();
        assert_eq!(nsm.pop_requests(&mut v, 8), 3);
        assert_eq!(ce.connections(), 3);

        let resets = ce.crash_nsm(NsmId(1)).unwrap();
        assert_eq!(resets, 3);
        assert_eq!(ce.connections(), 0);
        assert_eq!(ce.stats().conn_resets, 3);
        assert!(!ce.has_nsm(NsmId(1)));
        let mut seen = Vec::new();
        for ev in responses(&mut guest) {
            assert_eq!(ev.op, OpType::ErrorEvent);
            assert_eq!(ev.result(), OpResult::Err(NkError::ConnReset));
            seen.push(ev.socket.raw());
        }
        seen.sort();
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(ce.crash_nsm(NsmId(1)), Err(NkError::NotFound));
    }

    /// Crash resets and NSM responses race a guest ring of two: nothing is
    /// dropped, everything reaches the guest in the order it was handed
    /// off, and the guest's next request waits until the park is empty.
    #[test]
    fn a_full_guest_ring_parks_responses_and_resets_in_order() {
        let (mut guest, vm_end) = queue_set_pair(2);
        let (nsm_switch, mut nsm) = queue_set_pair(64);
        let mut ce = CoreEngine::new(IsolationPolicy::RoundRobin, 4);
        ce.register_vm(VmId(1), vec![vm_end], WakeState::new(), 0, None, None, 0)
            .unwrap();
        ce.register_nsm(NsmId(1), vec![nsm_switch]).unwrap();
        ce.map_vm(VmId(1), NsmId(1)).unwrap();
        for sock in [1u32, 2, 3] {
            guest.submit(request(OpType::SocketCreate, sock)).unwrap();
            ce.poll(0);
        }
        let mut reqs = Vec::new();
        assert_eq!(nsm.pop_requests(&mut reqs, 8), 3);
        for r in &reqs {
            let comp = Nqe::completion_for(r, OpResult::Ok, 100 + r.socket.raw()).unwrap();
            nsm.respond(comp).unwrap();
        }
        ce.poll(0);
        assert_eq!(ce.parked_responses_of(VmId(1)), 1, "two fit the ring");
        guest.submit(request(OpType::Connect, 1)).unwrap();
        assert_eq!(ce.crash_nsm(NsmId(1)), Ok(3));
        assert_eq!(ce.parked_responses_of(VmId(1)), 4, "resets queue behind");

        let mut got = Vec::new();
        for _ in 0..8 {
            ce.poll(0);
            got.extend(responses(&mut guest));
        }
        let got: Vec<_> = got
            .iter()
            .map(|n| (n.op, n.socket.raw(), n.result()))
            .collect();
        let reset = OpResult::Err(NkError::ConnReset);
        assert_eq!(
            got,
            vec![
                (OpType::SocketCreated, 1, OpResult::Ok),
                (OpType::SocketCreated, 2, OpResult::Ok),
                (OpType::SocketCreated, 3, OpResult::Ok),
                (OpType::ErrorEvent, 1, reset),
                (OpType::ErrorEvent, 2, reset),
                (OpType::ErrorEvent, 3, reset),
                // Popped only once the park emptied, after the crash.
                (
                    OpType::ConnectComplete,
                    1,
                    OpResult::Err(NkError::NsmUnavailable)
                ),
            ]
        );
        assert_eq!(ce.parked_responses_of(VmId(1)), 0);
        assert_eq!(ce.vm_stats(VmId(1)).unwrap().nqes_delivered, 3);
    }

    /// Requests routed while the VM's mapped NSM is gone fail fast with an
    /// error completion instead of stalling forever, and a dropped Send's
    /// hugepage payload is reclaimed.
    #[test]
    fn requests_to_a_crashed_nsm_fail_fast_and_reclaim_payload() {
        let region = nk_shmem::HugepageRegion::with_capacity(1 << 20);
        let (mut guest, vm_end) = queue_set_pair(64);
        let (nsm_switch, _nsm_end) = queue_set_pair(64);
        let mut ce = CoreEngine::new(IsolationPolicy::RoundRobin, 4);
        ce.register_vm(
            VmId(1),
            vec![vm_end],
            WakeState::new(),
            0,
            None,
            Some(region.clone()),
            0,
        )
        .unwrap();
        ce.register_nsm(NsmId(1), vec![nsm_switch]).unwrap();
        ce.map_vm(VmId(1), NsmId(1)).unwrap();
        ce.crash_nsm(NsmId(1)).unwrap();

        let before = region.available();
        let handle = region.alloc_and_write(&[7u8; 4096]).unwrap();
        let send = request(OpType::Send, 9).with_data(handle, 4096);
        guest.submit(send).unwrap();
        guest.submit(request(OpType::SocketCreate, 10)).unwrap();
        let switched = ce.poll(0);
        assert_eq!(switched, 2, "dropped requests still count as work");
        assert_eq!(ce.vm_stats(VmId(1)).unwrap().dropped, 2);
        assert_eq!(ce.stalled_nqes(), 0, "nothing may stall on a dead NSM");
        assert_eq!(region.available(), before, "dropped payload leaked");

        let replies = responses(&mut guest);
        assert_eq!(replies.len(), 2);
        assert!(replies
            .iter()
            .all(|r| r.result() == OpResult::Err(NkError::NsmUnavailable)));
        let send_reply = replies.iter().find(|r| r.op == OpType::SendComplete);
        assert_eq!(send_reply.unwrap().size, 4096, "send budget must come back");
        assert!(replies.iter().any(|r| r.op == OpType::SocketCreated));
        // The tuple must not be pinned to the dead NSM.
        assert_eq!(ce.connections(), 0);
    }

    /// After a crash the NSM id can be registered again (restart) and the
    /// datapath recovers for new work.
    #[test]
    fn nsm_id_is_reusable_after_crash() {
        let (mut guest, _old_nsm, mut ce) = setup(IsolationPolicy::RoundRobin, None);
        ce.crash_nsm(NsmId(1)).unwrap();
        let (fresh_switch, mut fresh_nsm) = queue_set_pair(64);
        ce.register_nsm(NsmId(1), vec![fresh_switch]).unwrap();
        assert!(ce.has_nsm(NsmId(1)));
        guest.submit(request(OpType::SocketCreate, 5)).unwrap();
        ce.poll(0);
        let mut v = Vec::new();
        assert_eq!(fresh_nsm.pop_requests(&mut v, 8), 1);
    }

    /// A completed close unpins the tuple: the pinned-connection counters
    /// that connection draining watches reach zero once sockets close.
    #[test]
    fn close_completion_unpins_the_connection() {
        let (mut guest, mut nsm, mut ce) = setup(IsolationPolicy::RoundRobin, None);
        guest.submit(request(OpType::Connect, 5)).unwrap();
        ce.poll(0);
        assert_eq!(ce.pinned_connections_of(VmId(1)), 1);
        assert_eq!(ce.pinned_connections(VmId(1), NsmId(1)), 1);
        assert_eq!(ce.pinned_connections_for_nsm(NsmId(1)), 1);

        let mut reqs = Vec::new();
        nsm.pop_requests(&mut reqs, 8);
        guest.submit(request(OpType::Close, 5)).unwrap();
        ce.poll(0);
        nsm.pop_requests(&mut reqs, 8);
        let close = reqs.last().unwrap();
        assert_eq!(close.op, OpType::Close);
        // Still pinned while the close is in flight — the completion must
        // route through the same NSM.
        assert_eq!(ce.pinned_connections(VmId(1), NsmId(1)), 1);

        let comp = Nqe::completion_for(close, OpResult::Ok, 0).unwrap();
        nsm.respond(comp).unwrap();
        ce.poll(0);
        assert_eq!(ce.pinned_connections_of(VmId(1)), 0);
        assert_eq!(ce.pinned_connections(VmId(1), NsmId(1)), 0);
        assert_eq!(ce.connections(), 0);
    }

    /// A frozen VM's fresh requests stay queued; thawing releases them.
    /// Responses still deliver during the freeze, so the pipeline drains
    /// towards the guest.
    #[test]
    fn freeze_window_parks_fresh_requests_and_thaw_releases_them() {
        let (mut guest, mut nsm, mut ce) = setup(IsolationPolicy::RoundRobin, None);
        guest.submit(request(OpType::SocketCreate, 1)).unwrap();
        ce.poll(0);
        let mut reqs = Vec::new();
        assert_eq!(nsm.pop_requests(&mut reqs, 8), 1);

        ce.set_frozen(VmId(1), true);
        assert!(ce.is_frozen(VmId(1)));
        guest.submit(request(OpType::SocketCreate, 2)).unwrap();
        ce.poll(0);
        assert_eq!(nsm.pop_requests(&mut reqs, 8), 0, "frozen VM forwarded");

        // In-flight responses still reach the frozen guest.
        let comp = Nqe::completion_for(&reqs[0], OpResult::Ok, 9).unwrap();
        nsm.respond(comp).unwrap();
        ce.poll(0);
        assert_eq!(responses(&mut guest).len(), 1);

        ce.set_frozen(VmId(1), false);
        ce.poll(0);
        assert_eq!(nsm.pop_requests(&mut reqs, 8), 1, "thaw releases the queue");
    }

    /// Extraction unpins a VM's tuples (the warm migration's zero-drain
    /// property) and installation re-pins them with the same queue-set hash
    /// fresh connections would get.
    #[test]
    fn extract_and_install_transplant_table_entries() {
        let (mut guest, mut nsm, mut ce) = setup(IsolationPolicy::RoundRobin, None);
        for sock in [4u32, 7] {
            guest.submit(request(OpType::SocketCreate, sock)).unwrap();
        }
        ce.poll(0);
        let mut reqs = Vec::new();
        nsm.pop_requests(&mut reqs, 8);
        for r in &reqs {
            let comp = Nqe::completion_for(r, OpResult::Ok, 100 + r.socket.raw()).unwrap();
            nsm.respond(comp).unwrap();
        }
        ce.poll(0);
        assert_eq!(ce.pinned_connections_of(VmId(1)), 2);

        let entries = ce.extract_vm_entries(VmId(1));
        assert_eq!(entries.len(), 2);
        assert_eq!(ce.pinned_connections_of(VmId(1)), 0, "extraction unpins");
        assert_eq!(ce.vm_entries(VmId(1)), vec![]);

        // Install on "the destination" (same engine stands in): the chosen
        // queue set matches what a fresh pin of the tuple would hash to.
        for (key, entry) in &entries {
            let qs = ce
                .install_entry(*key, NsmId(1), entry.nsm_socket.unwrap())
                .unwrap();
            assert_eq!(qs, entry.nsm_queue_set, "hash must be stable");
        }
        assert_eq!(ce.pinned_connections_of(VmId(1)), 2);
        assert_eq!(
            ce.install_entry(entries[0].0, NsmId(1), SocketId(1)),
            Err(NkError::AlreadyRegistered)
        );
        assert_eq!(
            ce.install_entry(entries[0].0, NsmId(9), SocketId(1)),
            Err(NkError::NotFound)
        );
    }

    #[test]
    fn mapped_vms_reports_current_mapping() {
        let (_guest, _nsm, mut ce) = setup(IsolationPolicy::RoundRobin, None);
        assert_eq!(ce.mapped_vms(NsmId(1)), vec![VmId(1)]);
        assert_eq!(ce.nsm_of(VmId(1)), Some(NsmId(1)));
        let (nsm2_switch, _n2) = queue_set_pair(16);
        ce.register_nsm(NsmId(2), vec![nsm2_switch]).unwrap();
        ce.map_vm(VmId(1), NsmId(2)).unwrap();
        assert!(ce.mapped_vms(NsmId(1)).is_empty());
        assert_eq!(ce.mapped_vms(NsmId(2)), vec![VmId(1)]);
    }

    /// Polling an extracted share group and the remainder separately is
    /// byte-identical to polling the whole engine — the commutation property
    /// the share-lane decomposition rests on — and `absorb_shard` restores
    /// the undecomposed engine (stats, pins, datapath).
    #[test]
    fn extract_and_absorb_shard_match_whole_engine_poll() {
        // Two disjoint ⟨VM, NSM⟩ groups per engine; rig A polls whole,
        // rig B extracts group 2 as a shard and polls the halves separately.
        let rig = || {
            let mut guests = Vec::new();
            let mut nsm_ends = Vec::new();
            let mut ce = CoreEngine::new(IsolationPolicy::RoundRobin, 4);
            for id in 1u8..=2 {
                let (guest, vm_end) = queue_set_pair(64);
                let (nsm_switch, nsm_end) = queue_set_pair(64);
                ce.register_vm(VmId(id), vec![vm_end], WakeState::new(), 0, None, None, 0)
                    .unwrap();
                ce.register_nsm(NsmId(id), vec![nsm_switch]).unwrap();
                ce.map_vm(VmId(id), NsmId(id)).unwrap();
                guests.push(guest);
                nsm_ends.push(nsm_end);
            }
            (guests, nsm_ends, ce)
        };
        let (mut guests_a, mut nsms_a, mut whole) = rig();
        let (mut guests_b, mut nsms_b, mut host) = rig();

        let submit = |guests: &mut Vec<nk_queue::RequesterEnd>| {
            for (i, sock) in [(0usize, 5u32), (1, 6), (1, 7)] {
                guests[i]
                    .submit(Nqe::new(
                        OpType::Connect,
                        VmId(i as u8 + 1),
                        QueueSetId(0),
                        SocketId(sock),
                    ))
                    .unwrap();
            }
        };
        submit(&mut guests_a);
        submit(&mut guests_b);

        // The census and edge views feed lane grouping.
        assert_eq!(host.vm_ids(), vec![VmId(1), VmId(2)]);
        let mut edges = host.vm_nsm_edges();
        edges.sort();
        assert_eq!(edges, vec![(VmId(1), NsmId(1)), (VmId(2), NsmId(2))]);

        whole.poll(0);
        let mut shard = host.extract_shard(&[VmId(2)], &[NsmId(2)]);
        shard.poll(0);
        host.poll(0);

        // Same requests arrive at the NSM side either way; answer them so
        // the response direction is exercised too.
        let pump = |nsms: &mut Vec<nk_queue::ResponderEnd>| {
            for end in nsms.iter_mut() {
                let mut reqs = Vec::new();
                end.pop_requests(&mut reqs, 16);
                for r in &reqs {
                    let comp = Nqe::completion_for(r, OpResult::Ok, 100 + r.socket.raw()).unwrap();
                    end.respond(comp).unwrap();
                }
            }
        };
        pump(&mut nsms_a);
        pump(&mut nsms_b);
        whole.poll(0);
        shard.poll(0);
        host.poll(0);
        host.absorb_shard(shard);

        // Pin edges now exist in the table; both views must agree.
        let mut ea = whole.vm_nsm_edges();
        ea.sort();
        let mut eb = host.vm_nsm_edges();
        eb.sort();
        assert_eq!(ea, eb);
        assert_eq!(whole.connections(), host.connections());
        assert_eq!(whole.stats().nqes_switched, host.stats().nqes_switched);
        assert_eq!(whole.stats().wakeups, host.stats().wakeups);
        assert_eq!(whole.stats().conn_resets, host.stats().conn_resets);
        for id in 1u8..=2 {
            assert_eq!(
                whole.vm_stats(VmId(id)).unwrap(),
                host.vm_stats(VmId(id)).unwrap(),
                "vm {id} stats diverged"
            );
        }
        // Guests see identical completion streams.
        for (ga, gb) in guests_a.iter_mut().zip(guests_b.iter_mut()) {
            assert_eq!(responses(ga), responses(gb));
        }
        // The absorbed engine keeps switching: a close on the re-absorbed
        // group still routes to its pinned NSM.
        guests_b[1]
            .submit(Nqe::new(OpType::Close, VmId(2), QueueSetId(0), SocketId(6)))
            .unwrap();
        host.poll(0);
        let mut v = Vec::new();
        assert_eq!(nsms_b[1].pop_requests(&mut v, 8), 1);
        assert_eq!(v[0].op, OpType::Close);
    }

    #[test]
    fn remap_vm_directs_new_connections_to_new_nsm() {
        let (mut guest, mut nsm1, mut ce) = setup(IsolationPolicy::RoundRobin, None);
        // Second NSM.
        let (nsm2_switch, mut nsm2) = queue_set_pair(64);
        ce.register_nsm(NsmId(2), vec![nsm2_switch]).unwrap();

        guest.submit(request(OpType::SocketCreate, 1)).unwrap();
        ce.poll(0);
        let mut v = Vec::new();
        assert_eq!(nsm1.pop_requests(&mut v, 8), 1);

        // Switch the VM to NSM 2 on the fly; a *new* socket goes there.
        ce.map_vm(VmId(1), NsmId(2)).unwrap();
        guest.submit(request(OpType::SocketCreate, 2)).unwrap();
        ce.poll(0);
        assert_eq!(nsm2.pop_requests(&mut v, 8), 1);
        // The old socket stays pinned to NSM 1 through the connection table.
        guest.submit(request(OpType::Close, 1)).unwrap();
        ce.poll(0);
        let mut v1 = Vec::new();
        assert_eq!(nsm1.pop_requests(&mut v1, 8), 1);
        assert_eq!(v1[0].op, OpType::Close);
    }
}
