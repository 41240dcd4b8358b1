//! Assembling a NetKernel host (and the baseline it is compared against).

use crate::faults::{FaultInjector, FaultStats};
use crate::lane::{LaneReport, ShareLane};
use crate::sched::SchedStats;
use nk_ctrl::{ControlPlane, EpochSample, NsmLoad};
use nk_engine::CoreEngine;
use nk_fabric::link::LinkConfig;
use nk_fabric::port::Port;
use nk_fabric::switch::{UplinkStats, VirtualSwitch};
use nk_fabric::uplink::HostUplink;
use nk_guest::GuestLib;
use nk_netstack::cc::CcAlgorithm;
use nk_netstack::{Segment, StackConfig, TcpStack};
use nk_obs::HostFeed;
use nk_queue::unbounded::{unbounded, UnboundedConsumer};
use nk_queue::{queue_set_pair, NkDevice, WakeState};
use nk_service::{Nsm, ServiceLib, SharedMemNsm};
use nk_shmem::HugepageRegion;
use nk_sim::record::TimeSeries;
use nk_sim::{CorePool, CostModel, CycleLedger, Pollable, PoolMember};
use nk_types::addr::nsm_ip_on;
use nk_types::api::{EpollEvent, ShutdownHow};
use nk_types::faults::{FaultAction, FaultPlan, LinkFault};
use nk_types::migrate::{ConnSnapshot, VmWarmExport};
use nk_types::{
    ControlAction, ControlEvent, ControlTarget, HostConfig, HostId, NkError, NkResult, NsmConfig,
    NsmId, PollEvents, SockAddr, SocketApi, SocketId, StackKind, VmConfig, VmId,
};
use std::collections::BTreeMap;

pub use nk_types::migrate::VmExport;

pub(crate) enum NsmInstance {
    /// Both variants are boxed: the instances are large (a TCP NSM carries
    /// a whole stack) and live in a map the host iterates every step.
    Tcp(Box<Nsm>),
    SharedMem(Box<SharedMemNsm>),
}

impl NsmInstance {
    /// Register a VM (and its hugepage region) with whichever NSM flavour
    /// this is.
    fn add_vm(&mut self, vm: VmId, region: HugepageRegion) {
        match self {
            NsmInstance::Tcp(n) => n.add_vm(vm, region),
            NsmInstance::SharedMem(n) => n.add_vm(vm, region),
        }
    }

    /// Detach a VM's region mapping (and any leftover per-VM state).
    fn remove_vm(&mut self, vm: VmId) {
        match self {
            NsmInstance::Tcp(n) => n.remove_vm(vm),
            NsmInstance::SharedMem(n) => n.remove_vm(vm),
        }
    }

    /// True while the instance holds state for the VM.
    fn has_vm(&self, vm: VmId) -> bool {
        match self {
            NsmInstance::Tcp(n) => n.serves_vm(vm),
            NsmInstance::SharedMem(n) => n.has_vm(vm),
        }
    }
}

impl Pollable for NsmInstance {
    fn poll(&mut self, now_ns: u64) -> usize {
        match self {
            NsmInstance::Tcp(n) => Pollable::poll(n.as_mut(), now_ns),
            NsmInstance::SharedMem(n) => Pollable::poll(n.as_mut(), now_ns),
        }
    }
}

/// A remote endpoint on the fabric (another machine the VMs talk to).
pub struct RemoteHost {
    /// The remote machine's own TCP stack.
    pub stack: TcpStack,
}

/// Per-epoch control-plane observability, recorded through
/// [`nk_sim::record::TimeSeries`]: the epoch samples and decision counts
/// the operator would chart, kept alongside the [`ControlEvent`] log so
/// control behaviour is part of the measurable perf trajectory.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ControlTelemetry {
    /// CoreEngine utilisation per epoch.
    pub engine_utilisation: TimeSeries,
    /// Utilisation per epoch of every NSM alive at sampling time.
    pub nsm_utilisation: BTreeMap<NsmId, TimeSeries>,
    /// Control actions applied per epoch.
    pub actions_per_epoch: TimeSeries,
}

/// A complete NetKernel host: VMs with GuestLibs, NSMs with ServiceLibs and
/// stacks, a CoreEngine switching NQEs, and a virtual switch carrying the
/// NSMs' traffic to remote hosts (paper Figure 2).
pub struct NetKernelHost {
    cfg: HostConfig,
    switch: VirtualSwitch<Segment>,
    engine: CoreEngine,
    guests: BTreeMap<VmId, GuestLib>,
    nsms: BTreeMap<NsmId, NsmInstance>,
    /// vNIC port of each TCP-stack NSM (a clone of the port its stack
    /// owns), kept so warm-migrated addresses can be aliased onto it.
    nsm_ports: BTreeMap<NsmId, Port<Segment>>,
    /// Foreign addresses adopted by a local NSM's vNIC for warm-migrated
    /// connections: alias address → owning NSM.
    aliases: BTreeMap<u32, NsmId>,
    remotes: BTreeMap<u32, RemoteHost>,
    /// Hugepage region of each VM, kept so a restarted or takeover NSM can
    /// be wired to the VMs it serves.
    regions: BTreeMap<VmId, HugepageRegion>,
    /// Restart generation per NSM: a restarted NSM's stack starts its
    /// ephemeral-port scan elsewhere, like a rebooted kernel would, so new
    /// connections cannot collide with peers' stale pre-crash state.
    generations: BTreeMap<NsmId, u32>,
    sched: SchedStats,
    injector: FaultInjector,
    /// Cycle-accounting pool the control plane observes and resizes: one
    /// member for CoreEngine, one per alive NSM.
    pools: CorePool,
    /// Cost model used to charge datapath work against the pool.
    cost: CostModel,
    /// True when datapath work is charged against the pools — either a host
    /// control plane is configured, or a cluster layer asked for accounting
    /// via [`NetKernelHost::enable_pool_accounting`].
    accounting: bool,
    /// The operator control plane, when the configuration enables one.
    ctrl: Option<ControlPlane>,
    /// Every control decision applied so far, in order (the record log).
    control_log: Vec<ControlEvent>,
    /// Per-epoch control observability (time series of samples and action
    /// counts).
    telemetry: ControlTelemetry,
    /// VMs mid-migration: exported to another host, still serving pinned
    /// connections here until the drain counter hits zero. Maps each to the
    /// NSM share being drained.
    draining: BTreeMap<VmId, NsmId>,
    /// Virtual time at which the next control epoch closes.
    next_epoch_ns: u64,
    /// Pool ledgers at the previous epoch boundary, for per-epoch deltas.
    epoch_ledgers: BTreeMap<PoolMember, CycleLedger>,
    /// Per-VM forwarded bytes at the previous epoch boundary.
    epoch_vm_bytes: BTreeMap<VmId, u64>,
    /// Remaining warm imports to refuse, armed by
    /// [`NetKernelHost::inject_import_failures`] — the fault surface
    /// evacuation-rollback tests drive.
    import_fail_budget: u32,
    /// The flight recorder's per-host feed: request-completion latency
    /// sampled from the engine's per-VM counter deltas at each step close,
    /// plus the fault events applied this interval. A cluster drains it at
    /// the round barrier; a bare host reads it directly.
    obs: HostFeed,
    /// Hub ends of the share-lane report edges while the host is split into
    /// lanes ([`NetKernelHost::split_lanes`]); drained in key order every
    /// hub round, empty outside a lane phase.
    lane_rx: BTreeMap<NsmId, UnboundedConsumer<LaneReport>>,
    /// Work done per lane since the last [`NetKernelHost::take_lane_loads`],
    /// accumulated from the lanes' reports — the weight signal for the
    /// executor's lane placement.
    lane_loads: BTreeMap<NsmId, u64>,
    now_ns: u64,
}

// The cluster's sharded executor moves whole hosts onto worker threads, so
// everything a host owns — guests, NSMs, stacks, hugepage regions, wake
// state, the switch with its uplink channel end — must be `Send`. Checked
// here at compile time so a non-Send field (an `Rc`, a thread-bound cache)
// is caught in this crate, not as an inscrutable error in `nk-cluster`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<NetKernelHost>();
};

impl NetKernelHost {
    /// Build a host from its configuration.
    pub fn new(cfg: HostConfig) -> NkResult<Self> {
        cfg.validate()?;
        let mut switch = VirtualSwitch::new();
        let mut engine = CoreEngine::new(cfg.isolation.clone(), cfg.batch_size);
        let mut nsms = BTreeMap::new();

        // Bring up the NSMs first so VMs can be mapped onto them.
        let mut nsm_ports = BTreeMap::new();
        for nsm_cfg in &cfg.nsms {
            let (instance, port) = Self::build_nsm(&cfg, nsm_cfg, 0, &mut engine, &mut switch)?;
            nsms.insert(nsm_cfg.id, instance);
            if let Some(port) = port {
                nsm_ports.insert(nsm_cfg.id, port);
            }
        }

        let mut pools = match cfg.control.as_ref().and_then(|c| c.pool_clock_hz) {
            Some(hz) => CorePool::with_clock(hz),
            None => CorePool::new(),
        };
        pools.register(PoolMember::Engine, cfg.core_engine_cores);
        for nsm_cfg in &cfg.nsms {
            pools.register(PoolMember::Nsm(nsm_cfg.id), nsm_cfg.vcpus);
        }
        let ctrl = match cfg.control.clone() {
            Some(policy) => Some(ControlPlane::new(policy)?),
            None => None,
        };
        let next_epoch_ns = cfg.control.as_ref().map(|c| c.epoch_ns).unwrap_or(u64::MAX);
        let mut host = NetKernelHost {
            cfg,
            switch,
            engine,
            guests: BTreeMap::new(),
            nsms,
            nsm_ports,
            aliases: BTreeMap::new(),
            remotes: BTreeMap::new(),
            regions: BTreeMap::new(),
            generations: BTreeMap::new(),
            sched: SchedStats::default(),
            injector: FaultInjector::idle(),
            pools,
            cost: CostModel::default(),
            accounting: ctrl.is_some(),
            ctrl,
            control_log: Vec::new(),
            telemetry: ControlTelemetry::default(),
            draining: BTreeMap::new(),
            next_epoch_ns,
            epoch_ledgers: BTreeMap::new(),
            epoch_vm_bytes: BTreeMap::new(),
            import_fail_budget: 0,
            obs: HostFeed::new(),
            lane_rx: BTreeMap::new(),
            lane_loads: BTreeMap::new(),
            now_ns: 0,
        };
        for vm_cfg in host.cfg.vms.clone() {
            let nsm = host.cfg.nsm_for_vm(vm_cfg.id)?;
            host.attach_vm(&vm_cfg, nsm, 0)?;
        }
        Ok(host)
    }

    /// Bring one VM up on `nsm`: fresh queue sets, wake state and hugepage
    /// region, registered and mapped in CoreEngine, wired into the NSM, with
    /// a GuestLib on the guest ends. Shared between initial bring-up and
    /// [`NetKernelHost::import_vm`]; a failure leaves no trace of the VM.
    fn attach_vm(&mut self, vm_cfg: &VmConfig, nsm: NsmId, registered_at_ns: u64) -> NkResult<()> {
        if !self.nsms.contains_key(&nsm) {
            return Err(NkError::NotFound);
        }
        let mut guest_ends = Vec::new();
        let mut engine_ends = Vec::new();
        for _ in 0..vm_cfg.vcpus {
            let (req, resp) = queue_set_pair(self.cfg.queue_capacity);
            guest_ends.push(req);
            engine_ends.push(resp);
        }
        let wake = WakeState::new();
        let region = HugepageRegion::new(self.cfg.hugepages_per_pair);
        self.engine.register_vm(
            vm_cfg.id,
            engine_ends,
            wake.clone(),
            vm_cfg.tenant,
            vm_cfg.rate_limit_gbps,
            Some(region.clone()),
            registered_at_ns,
        )?;
        if let Err(e) = self.engine.map_vm(vm_cfg.id, nsm) {
            // Unwind: a failed attach must leave no registered-but-guestless
            // VM in the engine (a retry would then trip over the residue).
            let _ = self.engine.deregister_vm(vm_cfg.id);
            return Err(e);
        }
        self.nsms
            .get_mut(&nsm)
            .expect("presence checked above")
            .add_vm(vm_cfg.id, region.clone());
        let device = NkDevice::new(guest_ends, wake);
        self.guests
            .insert(vm_cfg.id, GuestLib::new(vm_cfg.id, device, region.clone()));
        self.regions.insert(vm_cfg.id, region);
        Ok(())
    }

    /// Detach every warm-migration alias `dead` selects from the switch and
    /// forget it.
    fn drop_aliases(&mut self, dead: impl Fn(&Self, u32, NsmId) -> bool) {
        let gone: Vec<u32> = self
            .aliases
            .iter()
            .filter(|(addr, owner)| dead(self, **addr, **owner))
            .map(|(addr, _)| *addr)
            .collect();
        for addr in gone {
            self.switch.detach(addr);
            self.aliases.remove(&addr);
        }
    }

    /// Provision one NSM instance: queue pairs registered with the engine
    /// and, for TCP-stack NSMs, a vNIC attached to the switch (whose port
    /// handle is returned alongside, for warm-migration address aliasing).
    /// Shared between initial bring-up and [`NetKernelHost::restart_nsm`].
    fn build_nsm(
        cfg: &HostConfig,
        nsm_cfg: &NsmConfig,
        generation: u32,
        engine: &mut CoreEngine,
        switch: &mut VirtualSwitch<Segment>,
    ) -> NkResult<(NsmInstance, Option<Port<Segment>>)> {
        let mut service_ends = Vec::new();
        let mut engine_ends = Vec::new();
        for _ in 0..nsm_cfg.vcpus {
            let (req, resp) = queue_set_pair(cfg.queue_capacity);
            engine_ends.push(req);
            service_ends.push(resp);
        }
        engine.register_nsm(nsm_cfg.id, engine_ends)?;
        let device = NkDevice::new(service_ends, WakeState::new());
        Ok(match nsm_cfg.stack {
            StackKind::SharedMem => (
                NsmInstance::SharedMem(Box::new(SharedMemNsm::new(
                    nsm_cfg.id,
                    device,
                    cfg.batch_size,
                ))),
                None,
            ),
            kind => {
                let ip = nsm_ip_on(cfg.host_id, nsm_cfg.id);
                let port = switch.attach_with_link(
                    ip,
                    LinkConfig::ideal().with_rate_gbps(nsm_cfg.nic_rate_gbps),
                );
                let stack_cfg = StackConfig::new(ip)
                    .with_cc(CcAlgorithm::from_kind(nsm_cfg.cc))
                    .with_ephemeral_generation(generation);
                let stack = TcpStack::new(stack_cfg, port.clone());
                let service = ServiceLib::new(nsm_cfg.id, device, cfg.batch_size);
                (
                    NsmInstance::Tcp(Box::new(Nsm::new(nsm_cfg.id, kind, service, stack))),
                    Some(port),
                )
            }
        })
    }

    /// The host's configuration.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Mutable access to a VM's GuestLib (the application's socket API).
    pub fn guest_mut(&mut self, vm: VmId) -> Option<&mut GuestLib> {
        self.guests.get_mut(&vm)
    }

    /// Attach a remote host (a peer machine) to the fabric at `ip`. Drive
    /// its sockets by polling them (`poll`, `accept`, `recv`): the host
    /// ticks the stack every round and discards its `StackEvent`s.
    pub fn add_remote(&mut self, ip: u32) -> &mut TcpStack {
        let port = self.switch.attach(ip);
        let stack = TcpStack::new(StackConfig::new(ip), port);
        self.remotes.insert(ip, RemoteHost { stack });
        &mut self.remotes.get_mut(&ip).expect("just inserted").stack
    }

    /// Mutable access to a previously added remote host's stack.
    pub fn remote_mut(&mut self, ip: u32) -> Option<&mut TcpStack> {
        self.remotes.get_mut(&ip).map(|r| &mut r.stack)
    }

    /// The address a guest should connect to in order to reach NSM-hosted
    /// listeners of `nsm` on a host-0 (single-host) configuration. Hosts in
    /// a cluster shift by their id — use [`NetKernelHost::nsm_addr`].
    pub fn nsm_ip(nsm: NsmId) -> u32 {
        nsm_ip_on(HostId(0), nsm)
    }

    /// The vNIC address of `nsm` on *this* host (`10.<host>.0.<nsm>`).
    pub fn nsm_addr(&self, nsm: NsmId) -> u32 {
        nsm_ip_on(self.cfg.host_id, nsm)
    }

    /// This host's identity in the cluster address scheme.
    pub fn host_id(&self) -> HostId {
        self.cfg.host_id
    }

    /// Adopt `uplink` (the host side of a top-of-rack trunk's SPSC channel
    /// pair) as this host's uplink: frames with no local destination leave
    /// through it and ToR deliveries enter through it on every poll round.
    /// Destinations inside this host's own address block stay local even
    /// when dead (a crashed vNIC must not read as cross-host traffic).
    pub fn connect_uplink(&mut self, uplink: HostUplink<Segment>) {
        self.switch.set_uplink_filtered(
            uplink,
            nk_types::addr::host_prefix(self.cfg.host_id),
            nk_types::addr::HOST_PREFIX_MASK,
        );
    }

    /// Traffic counters of the uplink (zero when none is wired). The
    /// cluster placer reads these as the host's cross-host traffic signal.
    pub fn uplink_stats(&self) -> UplinkStats {
        self.switch.uplink_stats()
    }

    /// CoreEngine statistics.
    pub fn engine_stats(&self) -> nk_engine::EngineStats {
        self.engine.stats()
    }

    /// ServiceLib statistics of a TCP-stack NSM.
    pub fn nsm_service_stats(&self, nsm: NsmId) -> Option<nk_service::ServiceStats> {
        match self.nsms.get(&nsm) {
            Some(NsmInstance::Tcp(n)) => Some(n.service_stats()),
            _ => None,
        }
    }

    /// Shared-memory NSM statistics, when `nsm` is one.
    pub fn shm_stats(&self, nsm: NsmId) -> Option<nk_service::sharedmem::SharedMemStats> {
        match self.nsms.get(&nsm) {
            Some(NsmInstance::SharedMem(n)) => Some(n.stats()),
            _ => None,
        }
    }

    /// Per-VM CoreEngine switching statistics.
    pub fn vm_switch_stats(&self, vm: VmId) -> Option<nk_engine::VmSwitchStats> {
        self.engine.vm_stats(vm)
    }

    /// Request NQEs parked in the engine's stall queues awaiting retry.
    pub fn stalled_nqes(&self) -> usize {
        self.engine.stalled_nqes()
    }

    /// Step behaviour counters of [`NetKernelHost::step`] (rounds per step,
    /// quiescent exits, round-limit hits).
    pub fn sched_stats(&self) -> SchedStats {
        self.sched
    }

    /// Advance the host by `dt_ns`: fault events due at the new virtual time
    /// are applied first, then every datapath component — CoreEngine, the
    /// NSMs, remote stacks and the virtual switch — is polled in rounds
    /// until a full round reports no work (or `max_poll_rounds` is hit), so
    /// request → NSM → response round trips complete within one step
    /// regardless of queue depth. The control phase closes the step: at each
    /// control-epoch boundary the operator control plane samples the pool
    /// ledgers and may resize components or migrate VMs. Returns the amount
    /// of work (fault events + NQEs + segments + frames + control actions)
    /// processed.
    pub fn step(&mut self, dt_ns: u64) -> usize {
        let injected = self.begin_step(dt_ns);
        let mut total = injected;
        let mut quiescent = false;
        for _ in 0..self.cfg.max_poll_rounds {
            let work = self.poll_round();
            self.sched.rounds += 1;
            total += work;
            if work == 0 {
                quiescent = true;
                break;
            }
        }
        let controlled = self.end_step();
        total += controlled;
        self.sched.steps += 1;
        self.sched.fault_events += injected as u64;
        self.sched.quiescent_exits += quiescent as u64;
        self.sched.round_limit_hits += !quiescent as u64;
        self.sched.control_actions += controlled as u64;
        self.sched.work_items += total as u64;
        total
    }

    /// Advance virtual time and refill the accounting budgets for a step of
    /// `dt_ns`.
    fn advance(&mut self, dt_ns: u64) {
        self.now_ns += dt_ns;
        if self.accounting {
            self.pools.begin_step(dt_ns);
        }
    }

    // ---- The cluster-facing step protocol ------------------------------------
    //
    // A cluster interleaves poll rounds ACROSS hosts (host A's uplink frames
    // must traverse the top-of-rack switch before host B can answer within
    // the same step), so it cannot use the self-contained `step()`. These
    // three methods expose the same step structure — inject, poll rounds,
    // control — with the round loop handed to the caller. `step()` is the
    // single-host composition of exactly these pieces.
    //
    // Because the round loop lives with the caller, a cluster-driven host
    // tallies nothing: `sched_stats()` stays at zero and
    // `HostConfig::max_poll_rounds` does not bound the rounds — the
    // cluster's own stats and `ClusterConfig::max_rounds` play those roles
    // at cluster scope.

    /// Open a step of `dt_ns`: advance virtual time, refill accounting
    /// budgets and apply due fault events. Returns the fault events applied.
    pub fn begin_step(&mut self, dt_ns: u64) -> usize {
        self.advance(dt_ns);
        self.record_applied_faults(self.now_ns)
    }

    /// One poll round over the whole datapath at the current virtual time.
    /// Returns the work done; the caller loops until quiescence.
    pub fn poll_round(&mut self) -> usize {
        self.poll_datapath(self.now_ns)
    }

    /// Close a step: run the control phase (a no-op off epoch boundaries or
    /// without a control plane). Returns the control actions applied.
    pub fn end_step(&mut self) -> usize {
        let applied = self.run_control(self.now_ns);
        self.obs_sample(self.now_ns);
        applied
    }

    /// Charge datapath work against the accounting pools even without a
    /// host-level control plane, optionally on a fresh pool at `clock_hz`.
    /// The cluster layer calls this at bring-up so its placer sees per-NSM
    /// utilisation; hosts with their own [`nk_types::ControlPolicy`] already
    /// account and keep their configured clock.
    pub fn enable_pool_accounting(&mut self, clock_hz: Option<u64>) {
        if self.accounting {
            return;
        }
        if let Some(hz) = clock_hz {
            self.pools = CorePool::with_clock(hz);
            self.pools
                .register(PoolMember::Engine, self.cfg.core_engine_cores);
            for nsm_cfg in &self.cfg.nsms {
                if self.nsms.contains_key(&nsm_cfg.id) {
                    self.pools
                        .register(PoolMember::Nsm(nsm_cfg.id), nsm_cfg.vcpus);
                }
            }
            self.epoch_ledgers.clear();
        }
        self.accounting = true;
    }

    /// One poll round over every datapath component, in a fixed order. Work
    /// done by CoreEngine and the NSMs is charged against their core pools
    /// so the control plane sees utilisation.
    fn poll_datapath(&mut self, now_ns: u64) -> usize {
        // Nobody reads the ledgers without a control plane (host- or
        // cluster-level); keep the cost arithmetic and map lookups off the
        // hot path in that case.
        let charge = self.accounting;
        let engine_work = Pollable::poll(&mut self.engine, now_ns);
        if charge && engine_work > 0 {
            let cycles = self
                .cost
                .switch_cost(engine_work as u64, self.cfg.batch_size);
            self.pools.charge_up_to(PoolMember::Engine, cycles as u64);
        }
        let mut work = engine_work;
        for (id, nsm) in self.nsms.iter_mut() {
            let nsm_work = Pollable::poll(nsm, now_ns);
            if charge && nsm_work > 0 {
                // Each NSM work item is roughly one NQE translated plus one
                // socket-level message processed by the stack; precise
                // per-figure costs live in the perf model, this is the load
                // signal the autoscaler watches.
                let per_item = self.cost.nqe_translate + self.cost.kernel_tx.per_msg;
                let cycles = (nsm_work as f64 * per_item) as u64;
                self.pools.charge_up_to(PoolMember::Nsm(*id), cycles);
            }
            work += nsm_work;
        }
        work += self.poll_remotes(now_ns);
        work + Pollable::poll(&mut self.switch, now_ns)
    }

    /// One tick of every remote's stack. A remote's application drives its
    /// sockets by polling them and nothing reads the stack's event queue,
    /// so the round's events are dropped here rather than piling up for the
    /// life of the host.
    fn poll_remotes(&mut self, now_ns: u64) -> usize {
        let mut work = 0;
        for remote in self.remotes.values_mut() {
            work += Pollable::poll(&mut remote.stack, now_ns);
            remote.stack.discard_events();
        }
        work
    }

    // ---- Intra-host sharding (share lanes + hub) -----------------------------
    //
    // `split_lanes` carves the host's datapath into independently pollable
    // NSM share groups for the duration of a step's poll phase; `hub_round`
    // is the serial remainder the coordinator polls at the round barrier;
    // `absorb_lanes` puts the host back together before the control phase.
    // The decomposed round order — lanes (each: engine shard, then member
    // NSMs) in any interleaving, then hub (resident engine, remotes,
    // switch) — is byte-identical to `poll_datapath`, because the grouping
    // closes over every VM↔NSM edge: components of different lanes touch
    // disjoint ports, queues, table entries and hugepage regions, so their
    // polls commute, and the per-group relative order matches the serial
    // one. All control-plane mutation (faults, freezes, migration,
    // restarts) happens outside the poll phase, on the re-assembled host.

    /// Split the datapath into share lanes: the connected components of the
    /// VM↔NSM edge relation (engine mapping, connection-table pins, NSM-held
    /// VM state, draining shares), keyed by each group's smallest NSM id.
    /// VMs reachable from no live NSM (e.g. mapped to a crashed share) stay
    /// resident in the host's engine and are served by the hub exactly as
    /// the serial poll would. The host keeps the hub end of each lane's
    /// report edge; callers must poll [`ShareLane::poll_round`] before each
    /// [`NetKernelHost::hub_round`] and eventually hand every lane back to
    /// [`NetKernelHost::absorb_lanes`].
    pub fn split_lanes(&mut self) -> BTreeMap<NsmId, ShareLane> {
        // Union-find over NSM ids, linking larger roots under smaller ones
        // so every root is its group's minimum — the lane key.
        let mut parent: BTreeMap<NsmId, NsmId> = self.nsms.keys().map(|id| (*id, *id)).collect();
        fn find(parent: &mut BTreeMap<NsmId, NsmId>, id: NsmId) -> NsmId {
            let mut root = id;
            while parent[&root] != root {
                root = parent[&root];
            }
            let mut cur = id;
            while parent[&cur] != root {
                let next = parent[&cur];
                parent.insert(cur, root);
                cur = next;
            }
            root
        }

        // Every VM↔NSM edge that implies shared state; NSMs sharing a VM
        // fuse into one lane.
        let mut vm_nsms: BTreeMap<VmId, Vec<NsmId>> = BTreeMap::new();
        let note = |vm: VmId, nsm: NsmId, vm_nsms: &mut BTreeMap<VmId, Vec<NsmId>>| {
            if self.nsms.contains_key(&nsm) {
                vm_nsms.entry(vm).or_default().push(nsm);
            }
        };
        for (vm, nsm) in self.engine.vm_nsm_edges() {
            note(vm, nsm, &mut vm_nsms);
        }
        for vm in self.engine.vm_ids() {
            for (id, nsm) in self.nsms.iter() {
                if nsm.has_vm(vm) {
                    vm_nsms.entry(vm).or_default().push(*id);
                }
            }
        }
        for (vm, nsm) in self.draining.iter() {
            if self.nsms.contains_key(nsm) {
                vm_nsms.entry(*vm).or_default().push(*nsm);
            }
        }
        for nsms in vm_nsms.values() {
            for pair in nsms.windows(2) {
                let (a, b) = (find(&mut parent, pair[0]), find(&mut parent, pair[1]));
                if a != b {
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    parent.insert(hi, lo);
                }
            }
        }

        // Assemble groups: member NSMs and the VMs reaching them.
        let mut group_nsms: BTreeMap<NsmId, Vec<NsmId>> = BTreeMap::new();
        let nsm_ids: Vec<NsmId> = self.nsms.keys().copied().collect();
        for id in nsm_ids {
            let root = find(&mut parent, id);
            group_nsms.entry(root).or_default().push(id);
        }
        let mut group_vms: BTreeMap<NsmId, Vec<VmId>> = BTreeMap::new();
        for (vm, nsms) in &vm_nsms {
            let root = find(&mut parent, nsms[0]);
            group_vms.entry(root).or_default().push(*vm);
        }

        let mut lanes = BTreeMap::new();
        for (key, members) in group_nsms {
            let vms = group_vms.remove(&key).unwrap_or_default();
            let engine = self.engine.extract_shard(&vms, &members);
            let mut member_map = BTreeMap::new();
            for id in members {
                let nsm = self.nsms.remove(&id).expect("grouped NSMs are live");
                member_map.insert(id, nsm);
            }
            let (tx, rx) = unbounded();
            self.lane_rx.insert(key, rx);
            lanes.insert(
                key,
                ShareLane {
                    key,
                    engine,
                    members: member_map,
                    tx,
                },
            );
        }
        lanes
    }

    /// The hub's share of one poll round while the host is split into
    /// lanes: poll the resident engine (ungrouped VMs — also what keeps
    /// `EngineStats::poll_rounds` counting host rounds exactly as an
    /// undecomposed poll loop would), drain every lane's reports in key
    /// order into the cycle ledgers and the lane load counters, then poll
    /// remote stacks and the virtual switch. Returns only the work done
    /// *here* — lane work reaches the executor through the lanes' own
    /// return values, and counting it twice would skew quiescence.
    pub fn hub_round(&mut self, now_ns: u64) -> usize {
        let charge = self.accounting;
        let resident_work = Pollable::poll(&mut self.engine, now_ns);
        let mut engine_total = resident_work as u64;
        let per_item = self.cost.nqe_translate + self.cost.kernel_tx.per_msg;
        let pools = &mut self.pools;
        let lane_loads = &mut self.lane_loads;
        for (key, rx) in self.lane_rx.iter_mut() {
            let mut lane_load = 0u64;
            rx.drain_with(|report| match report {
                LaneReport::Engine { work } => {
                    engine_total += work;
                    lane_load += work;
                }
                LaneReport::Nsm { id, work } => {
                    if charge && work > 0 {
                        let cycles = (work as f64 * per_item) as u64;
                        pools.charge_up_to(PoolMember::Nsm(id), cycles);
                    }
                    lane_load += work;
                }
            });
            if lane_load > 0 {
                *lane_loads.entry(*key).or_insert(0) += lane_load;
            }
        }
        // One engine charge per round over the summed shard work — the cost
        // curve is batched, so summing before costing matches the serial
        // single-poll charge exactly.
        if charge && engine_total > 0 {
            let cycles = self.cost.switch_cost(engine_total, self.cfg.batch_size);
            self.pools.charge_up_to(PoolMember::Engine, cycles as u64);
        }
        let work = resident_work + self.poll_remotes(now_ns);
        work + Pollable::poll(&mut self.switch, now_ns)
    }

    /// Merge lanes produced by [`NetKernelHost::split_lanes`] back into the
    /// host (engine shards re-absorbed, NSM instances re-inserted, report
    /// edges dropped). Must be called with every outstanding lane before
    /// any control-plane operation touches the host.
    pub fn absorb_lanes(&mut self, lanes: BTreeMap<NsmId, ShareLane>) {
        for (key, lane) in lanes {
            debug_assert_eq!(key, lane.key);
            self.engine.absorb_shard(lane.engine);
            let mut members = lane.members;
            self.nsms.append(&mut members);
            self.lane_rx.remove(&key);
        }
        debug_assert!(self.lane_rx.is_empty(), "a lane was never handed back");
    }

    /// Work done per lane since the last call, from the lanes' barrier
    /// reports — consumed by the executor's weighted lane placement. Lane
    /// keys are stable for a fixed topology, so last step's loads seed this
    /// step's dealing.
    pub fn take_lane_loads(&mut self) -> BTreeMap<NsmId, u64> {
        std::mem::take(&mut self.lane_loads)
    }

    // ---- The operator control plane ------------------------------------------

    /// Close a control epoch if one is due: sample the pools and the engine,
    /// let the control plane decide, and apply its actions. Returns the
    /// number of actions applied (0 off epoch boundaries or without a
    /// control plane).
    fn run_control(&mut self, now_ns: u64) -> usize {
        if self.ctrl.is_none() || now_ns < self.next_epoch_ns {
            return 0;
        }
        let sample = self.sample_epoch(now_ns);
        let t_secs = now_ns as f64 / 1e9;
        self.telemetry
            .engine_utilisation
            .push(t_secs, sample.engine_utilisation);
        for (id, load) in &sample.nsms {
            self.telemetry
                .nsm_utilisation
                .entry(*id)
                .or_default()
                .push(t_secs, load.utilisation);
        }
        let ctrl = self.ctrl.as_mut().expect("checked above");
        self.next_epoch_ns = now_ns + ctrl.policy().epoch_ns;
        let epoch = ctrl.epochs();
        let actions = ctrl.on_epoch(&sample);
        let mut applied = 0;
        for action in actions {
            let ok = match action {
                ControlAction::ScaleUp {
                    target, to_cores, ..
                }
                | ControlAction::ScaleDown {
                    target, to_cores, ..
                } => {
                    let member = match target {
                        ControlTarget::Engine => PoolMember::Engine,
                        ControlTarget::Nsm(id) => PoolMember::Nsm(id),
                    };
                    self.pools.set_cores(member, to_cores)
                }
                ControlAction::Rebalance { vm, to, .. } => self.migrate_vm(vm, to).is_ok(),
            };
            if ok {
                self.control_log.push(ControlEvent {
                    at_ns: now_ns,
                    epoch,
                    action,
                });
                applied += 1;
            }
        }
        self.telemetry
            .actions_per_epoch
            .push(t_secs, applied as f64);
        applied
    }

    /// Assemble the load sample of the epoch ending now: per-member
    /// utilisation from the pool-ledger deltas, per-NSM backpressure from
    /// the engine's stall queues, per-VM throughput from the switch stats.
    fn sample_epoch(&mut self, now_ns: u64) -> EpochSample {
        let engine_utilisation = self.epoch_utilisation(PoolMember::Engine);
        let engine_cores = self
            .pools
            .cores(PoolMember::Engine)
            .unwrap_or(self.cfg.core_engine_cores);
        let nsm_ids: Vec<NsmId> = self.nsms.keys().copied().collect();
        let mut nsms = BTreeMap::new();
        for id in nsm_ids {
            let utilisation = self.epoch_utilisation(PoolMember::Nsm(id));
            let cores = self.pools.cores(PoolMember::Nsm(id)).unwrap_or(0);
            let mut queue_depth = 0u64;
            let mut vm_bytes = BTreeMap::new();
            for vm in self.engine.mapped_vms(id) {
                queue_depth += self.engine.stalled_nqes_of(vm) as u64;
                let total = self
                    .engine
                    .vm_stats(vm)
                    .map(|s| s.bytes_forwarded)
                    .unwrap_or(0);
                let prev = self.epoch_vm_bytes.insert(vm, total).unwrap_or(0);
                vm_bytes.insert(vm, total.saturating_sub(prev));
            }
            nsms.insert(
                id,
                NsmLoad {
                    cores,
                    utilisation,
                    queue_depth,
                    vm_bytes,
                },
            );
        }
        // VMs not mapped to any alive NSM this epoch (their NSM crashed and
        // was not restarted yet) still get their byte snapshot advanced —
        // otherwise the first epoch after recovery attributes several
        // epochs' bytes to one and skews the rebalancer's busiest-first
        // ordering.
        let unsampled: Vec<VmId> = self
            .guests
            .keys()
            .filter(|vm| !nsms.values().any(|l| l.vm_bytes.contains_key(vm)))
            .copied()
            .collect();
        for vm in unsampled {
            let total = self
                .engine
                .vm_stats(vm)
                .map(|s| s.bytes_forwarded)
                .unwrap_or(0);
            self.epoch_vm_bytes.insert(vm, total);
        }
        EpochSample {
            now_ns,
            engine_cores,
            engine_utilisation,
            nsms,
        }
    }

    /// Utilisation of one pool member over the epoch ending now (ledger
    /// delta against the previous boundary).
    fn epoch_utilisation(&mut self, member: PoolMember) -> f64 {
        let Some(ledger) = self.pools.ledger(member) else {
            self.epoch_ledgers.remove(&member);
            return 0.0;
        };
        let prev = self
            .epoch_ledgers
            .insert(member, ledger)
            .unwrap_or_default();
        let offered = ledger.offered.saturating_sub(prev.offered);
        let busy = ledger.busy.saturating_sub(prev.busy);
        if offered == 0 {
            0.0
        } else {
            busy as f64 / offered as f64
        }
    }

    /// Control decisions applied so far, in application order.
    pub fn control_events(&self) -> &[ControlEvent] {
        &self.control_log
    }

    /// Per-epoch control observability: utilisation samples and action
    /// counts as [`TimeSeries`].
    pub fn control_telemetry(&self) -> &ControlTelemetry {
        &self.telemetry
    }

    /// The cycle-accounting pool (current core allocations and ledgers).
    pub fn core_pool(&self) -> &CorePool {
        &self.pools
    }

    /// Cores currently allocated to an NSM (`None` when it is not alive).
    pub fn nsm_cores(&self, nsm: NsmId) -> Option<usize> {
        self.pools.cores(PoolMember::Nsm(nsm))
    }

    /// Cores currently allocated to CoreEngine.
    pub fn engine_cores(&self) -> usize {
        self.pools
            .cores(PoolMember::Engine)
            .unwrap_or(self.cfg.core_engine_cores)
    }

    /// Apply every fault event due at `now_ns`; returns how many applied.
    fn apply_due_faults(&mut self, now_ns: u64) -> usize {
        let mut applied = 0;
        while let Some(action) = self.injector.take_due(now_ns) {
            // Plans are validated at install time; an application that still
            // fails (e.g. a link change for an NSM crashed by an earlier
            // event) is deliberately a no-op rather than a panic.
            let _ = self.apply_fault(action);
            applied += 1;
        }
        applied
    }

    /// Apply due faults and mirror the count into the flight-recorder feed
    /// (the recorder's dump-on-fault trigger and fault timeline ride on
    /// these samples).
    fn record_applied_faults(&mut self, now_ns: u64) -> usize {
        let applied = self.apply_due_faults(now_ns);
        if applied > 0 && self.obs.enabled() {
            self.obs.record_faults(now_ns, applied as u32);
        }
        applied
    }

    /// Sample every VM's cumulative forwarded/delivered NQE counters into
    /// the latency feed. Runs at each step close (the `Control` phase for a
    /// self-stepped host, [`NetKernelHost::end_step`] under a cluster), so
    /// request completions are attributed at step granularity in virtual
    /// time.
    fn obs_sample(&mut self, now_ns: u64) {
        if !self.obs.enabled() {
            return;
        }
        for (vm, _) in self.guests.iter() {
            if let Some(stats) = self.engine.vm_stats(*vm) {
                self.obs
                    .sample_vm(now_ns, *vm, stats.nqes_forwarded, stats.nqes_delivered);
            }
        }
    }

    /// Mutable access to the flight-recorder feed (the cluster drains it at
    /// the round barrier via [`nk_obs::HostFeed::take_hist`]).
    pub fn obs_feed_mut(&mut self) -> &mut HostFeed {
        &mut self.obs
    }

    /// Enable or disable this host's recorder feed. Disabled feeds skip all
    /// sampling work — the recorder-off arm of an overhead measurement.
    pub fn set_obs_enabled(&mut self, on: bool) {
        self.obs.set_enabled(on);
    }

    /// Step repeatedly with a fixed increment.
    pub fn run(&mut self, steps: usize, dt_ns: u64) {
        for _ in 0..steps {
            self.step(dt_ns);
        }
    }

    // ---- Fault injection and live handover ----------------------------------

    /// Install a fault plan to be replayed against virtual time. Events
    /// already in the past apply on the next step. Replaces any previous
    /// plan.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) -> NkResult<()> {
        plan.validate(&self.cfg)?;
        self.injector = FaultInjector::new(plan);
        Ok(())
    }

    /// Counters of the fault events applied so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }

    /// Fault events installed but not yet applied.
    pub fn pending_faults(&self) -> usize {
        self.injector.pending()
    }

    /// True when an NSM with this id is currently alive.
    pub fn has_nsm(&self, nsm: NsmId) -> bool {
        self.nsms.contains_key(&nsm)
    }

    /// The NSM currently serving a VM's new connections.
    pub fn nsm_of(&self, vm: VmId) -> Option<NsmId> {
        self.engine.nsm_of(vm)
    }

    /// Apply one fault action immediately (the injector calls this; tests
    /// and operators may too).
    pub fn apply_fault(&mut self, action: FaultAction) -> NkResult<usize> {
        match action {
            FaultAction::CrashNsm(nsm) => self.crash_nsm(nsm),
            FaultAction::RestartNsm(nsm) => self.restart_nsm(nsm).map(|()| 0),
            FaultAction::MigrateVm { vm, to } => self.migrate_vm(vm, to).map(|()| 0),
            FaultAction::DegradeLink { nsm, link } => self.degrade_nsm_link(nsm, link).map(|()| 0),
        }
    }

    /// Hard-crash an NSM: the instance (stack state, queues, vNIC) is torn
    /// down, and every connection pinned to it observes
    /// [`NkError::ConnReset`] on its guest socket. Subsequent requests from
    /// VMs still mapped to the crashed NSM fail fast with
    /// [`NkError::NsmUnavailable`] until it is restarted or the VMs are
    /// migrated. Returns the number of connections reset.
    pub fn crash_nsm(&mut self, nsm: NsmId) -> NkResult<usize> {
        let instance = self.nsms.remove(&nsm).ok_or(NkError::NotFound)?;
        if matches!(instance, NsmInstance::Tcp(_)) {
            self.switch.detach(self.nsm_addr(nsm));
        }
        drop(instance);
        self.nsm_ports.remove(&nsm);
        // Warm-migrated addresses adopted by the crashed vNIC die with it.
        self.drop_aliases(|_, _, owner| owner == nsm);
        self.pools.remove(PoolMember::Nsm(nsm));
        self.epoch_ledgers.remove(&PoolMember::Nsm(nsm));
        self.engine.crash_nsm(nsm)
    }

    /// Re-provision a crashed NSM from its original configuration: fresh
    /// queues, an empty stack, and a new vNIC at the same address. VMs
    /// currently mapped to it are re-attached so their new connections work
    /// immediately; connections lost in the crash stay lost.
    pub fn restart_nsm(&mut self, nsm: NsmId) -> NkResult<()> {
        if self.nsms.contains_key(&nsm) {
            return Err(NkError::AlreadyRegistered);
        }
        let nsm_cfg = self.cfg.nsm(nsm).ok_or(NkError::NotFound)?.clone();
        let generation = {
            let g = self.generations.entry(nsm).or_insert(0);
            *g += 1;
            *g
        };
        let (mut instance, port) = Self::build_nsm(
            &self.cfg,
            &nsm_cfg,
            generation,
            &mut self.engine,
            &mut self.switch,
        )?;
        if let Some(port) = port {
            self.nsm_ports.insert(nsm, port);
        }
        // Only VMs *currently mapped* to this NSM are re-attached: a VM
        // migrated away before the crash must not be resurrected by the
        // restart (the intra-host migration detaches it; this loop is the
        // other half of that guarantee).
        for vm in self.engine.mapped_vms(nsm) {
            if let Some(region) = self.regions.get(&vm) {
                instance.add_vm(vm, region.clone());
            }
        }
        self.nsms.insert(nsm, instance);
        // The restarted NSM comes back at its configured size with a fresh
        // accounting life; the autoscaler will resize it from load.
        self.pools.register(PoolMember::Nsm(nsm), nsm_cfg.vcpus);
        Ok(())
    }

    /// Live-migrate a VM onto a different NSM ("switch her NSM on the fly",
    /// §3): the target NSM is wired to the VM's hugepage region and new
    /// connections route to it; existing connections stay pinned to
    /// whichever NSM they were opened on.
    ///
    /// The VM is *detached* from its previous NSM unless connections are
    /// still pinned there (those need the region until they drain) — a
    /// migrated-away VM must not linger in the old instance's mappings,
    /// where it would leak the region and survive a later restart.
    pub fn migrate_vm(&mut self, vm: VmId, to: NsmId) -> NkResult<()> {
        if !self.guests.contains_key(&vm) {
            return Err(NkError::NotFound);
        }
        let region = self.regions.get(&vm).ok_or(NkError::NotFound)?.clone();
        let from = self.engine.nsm_of(vm);
        let instance = self.nsms.get_mut(&to).ok_or(NkError::NotFound)?;
        instance.add_vm(vm, region);
        self.engine.remap_vm(vm, to)?;
        if let Some(from) = from.filter(|f| *f != to) {
            if self.engine.pinned_connections(vm, from) == 0 {
                if let Some(old) = self.nsms.get_mut(&from) {
                    old.remove_vm(vm);
                }
            }
        }
        Ok(())
    }

    // ---- Cross-host migration: export / import / drain -----------------------

    /// Begin moving a VM off this host: snapshot its identity for the
    /// destination host and put the local instance into *drain* — it keeps
    /// serving the connections pinned here, and
    /// [`NetKernelHost::retire_vm`] tears it down once
    /// [`NetKernelHost::vm_pinned`] reaches zero.
    pub fn export_vm(&mut self, vm: VmId) -> NkResult<VmExport> {
        let vm_cfg = self.cfg.vm(vm).cloned().ok_or(NkError::NotFound)?;
        if !self.guests.contains_key(&vm) {
            return Err(NkError::NotFound);
        }
        if self.draining.contains_key(&vm) {
            return Err(NkError::AlreadyRegistered);
        }
        let from_nsm = self.engine.nsm_of(vm).ok_or(NkError::NotFound)?;
        self.draining.insert(vm, from_nsm);
        Ok(VmExport {
            vm: vm_cfg,
            from_nsm,
        })
    }

    /// Bring an exported VM up on this host: fresh queue sets, a fresh
    /// hugepage region, and new connections served by `nsm`. The paper's
    /// "switch her NSM on the fly" across the host boundary — connections
    /// pinned on the source host are *not* transplanted; they drain there.
    pub fn import_vm(&mut self, export: &VmExport, nsm: NsmId) -> NkResult<()> {
        let vm_cfg = &export.vm;
        if self.guests.contains_key(&vm_cfg.id) {
            return Err(NkError::AlreadyRegistered);
        }
        self.attach_vm(vm_cfg, nsm, self.now_ns)?;
        // A cancelled-then-retried import must not duplicate the VM's
        // configuration entry.
        if !self.cfg.vms.iter().any(|v| v.id == vm_cfg.id) {
            self.cfg.vms.push(vm_cfg.clone());
        }
        // A share previously retired to zero cores revives when a tenant
        // arrives: restore the NSM's configured allocation so the placer
        // and autoscaler see real utilisation again instead of a
        // permanently idle-looking zero-budget pool.
        if self.pools.cores(PoolMember::Nsm(nsm)) == Some(0) {
            let vcpus = self.cfg.nsm(nsm).map(|n| n.vcpus).unwrap_or(1);
            self.pools.set_cores(PoolMember::Nsm(nsm), vcpus);
        }
        Ok(())
    }

    /// True when the VM currently has an instance on this host — resident
    /// or still draining off it.
    pub fn has_vm(&self, vm: VmId) -> bool {
        self.guests.contains_key(&vm)
    }

    /// Abort an export whose import failed on the destination (or a warm
    /// migration still inside its freeze window): the VM leaves drain,
    /// thaws, and keeps running here as if the migration had never been
    /// attempted. Returns whether a drain or freeze was actually cancelled.
    pub fn cancel_export(&mut self, vm: VmId) -> bool {
        let frozen = self.engine.is_frozen(vm);
        self.thaw_vm(vm);
        self.draining.remove(&vm).is_some() || frozen
    }

    /// Connections a VM still has pinned on this host — the drain counter a
    /// cross-host migration watches.
    pub fn vm_pinned(&self, vm: VmId) -> usize {
        self.engine.pinned_connections_of(vm)
    }

    /// Connections pinned to `nsm` from any VM on this host.
    pub fn nsm_pinned(&self, nsm: NsmId) -> usize {
        self.engine.pinned_connections_for_nsm(nsm)
    }

    /// VMs currently draining off this host, with the NSM share each is
    /// draining from, in id order.
    pub fn draining_vms(&self) -> Vec<(VmId, NsmId)> {
        self.draining.iter().map(|(v, n)| (*v, *n)).collect()
    }

    /// Tear down a fully drained VM: its queues, GuestLib, hugepage region
    /// and configuration entry all go. Refused while connections are still
    /// pinned — draining means *waiting*, not resetting.
    pub fn retire_vm(&mut self, vm: VmId) -> NkResult<()> {
        if !self.guests.contains_key(&vm) {
            return Err(NkError::NotFound);
        }
        if self.vm_pinned(vm) > 0 {
            return Err(NkError::InvalidState);
        }
        self.engine.deregister_vm(vm)?;
        self.guests.remove(&vm);
        self.regions.remove(&vm);
        self.draining.remove(&vm);
        self.epoch_vm_bytes.remove(&vm);
        // Every NSM instance that was ever wired to the VM drops its region
        // mapping — a retired VM must not leak its hugepages into a share
        // that no longer serves it.
        for instance in self.nsms.values_mut() {
            instance.remove_vm(vm);
        }
        self.cfg.vms.retain(|v| v.id != vm);
        // Adopted warm-migration addresses whose owning stack no longer
        // serves any connection on them are dropped: a stale alias would
        // shadow a later adoption of the same address by a different NSM.
        self.drop_aliases(|host, addr, owner| match host.nsms.get(&owner) {
            Some(NsmInstance::Tcp(n)) => !n.stack().serves_ip(addr),
            _ => true,
        });
        Ok(())
    }

    /// Scale a fully drained NSM's core share to zero (the ROADMAP's
    /// scale-to-zero of drained NSMs): fires only when no VM maps to it and
    /// no connection is pinned to it. The NSM instance stays alive at zero
    /// cores; a later [`NetKernelHost::import_vm`] onto it restores its
    /// configured allocation, and hosts running their own control plane can
    /// also revive it through backpressure-driven scale-up. Returns whether
    /// the share was retired now.
    pub fn retire_nsm_if_drained(&mut self, nsm: NsmId) -> bool {
        if !self.nsms.contains_key(&nsm)
            || !self.engine.mapped_vms(nsm).is_empty()
            || self.engine.pinned_connections_for_nsm(nsm) > 0
            || self.pools.cores(PoolMember::Nsm(nsm)) == Some(0)
        {
            return false;
        }
        self.pools.set_cores(PoolMember::Nsm(nsm), 0)
    }

    /// Undo a [`NetKernelHost::retire_nsm_if_drained`]: restore the NSM's
    /// configured core allocation. The revert half of an evacuation plan's
    /// scale-to-zero tail — a rolled-back plan must leave the share exactly
    /// as it found it. Returns whether a zero-core share was revived.
    pub fn revive_nsm_share(&mut self, nsm: NsmId) -> bool {
        if !self.nsms.contains_key(&nsm) || self.pools.cores(PoolMember::Nsm(nsm)) != Some(0) {
            return false;
        }
        let vcpus = self.cfg.nsm(nsm).map(|n| n.vcpus).unwrap_or(1);
        self.pools.set_cores(PoolMember::Nsm(nsm), vcpus)
    }

    /// Arm the warm-import fault: the next `n` calls to
    /// [`NetKernelHost::import_vm_warm`] refuse with
    /// [`NkError::NsmUnavailable`] before touching any state — the
    /// destination behaving as if its share vanished at the worst moment.
    /// Rollback paths (single warm migration and whole-plan evacuation) are
    /// tested through this surface.
    pub fn inject_import_failures(&mut self, n: u32) {
        self.import_fail_budget = n;
    }

    // ---- Warm cross-host migration: freeze / export / install ---------------

    /// Open a warm-migration freeze window on a VM: CoreEngine stops
    /// popping its fresh requests while in-flight work (stalled NQEs,
    /// responses, frames on the wire) keeps draining through
    /// [`NetKernelHost::begin_step`] / [`NetKernelHost::poll_round`]. A few
    /// quiesced steps later the VM's pipeline is snapshot-consistent.
    pub fn freeze_vm(&mut self, vm: VmId) -> NkResult<()> {
        if !self.guests.contains_key(&vm) {
            return Err(NkError::NotFound);
        }
        self.engine.set_frozen(vm, true);
        Ok(())
    }

    /// Close a freeze window without migrating: the VM resumes serving
    /// exactly as before.
    pub fn thaw_vm(&mut self, vm: VmId) {
        self.engine.set_frozen(vm, false);
    }

    /// True while the VM sits inside a freeze window.
    pub fn vm_frozen(&self, vm: VmId) -> bool {
        self.engine.is_frozen(vm)
    }

    /// True when none of the VM's pinned connections has bytes in flight
    /// (everything transmitted is acknowledged) and no request NQEs are
    /// parked in its stall queues — the condition under which a warm export
    /// is a clean cut. The freeze window polls this between steps.
    pub fn vm_wire_quiet(&self, vm: VmId) -> bool {
        if self.engine.stalled_nqes_of(vm) > 0 {
            return false;
        }
        self.engine.vm_entries(vm).iter().all(|(_, entry)| {
            match (entry.nsm_socket, self.nsms.get(&entry.nsm)) {
                (Some(sock), Some(NsmInstance::Tcp(n))) => n.stack().conn_quiet(sock),
                // Handshake still completing at the NQE level, or a
                // non-TCP share: not a clean cut yet.
                (None, _) => false,
                _ => true,
            }
        })
    }

    /// True when `nsm` currently holds per-VM state for `vm` (region
    /// mapping or sockets). Exposed for migration-hygiene assertions.
    pub fn nsm_serves_vm(&self, nsm: NsmId, vm: VmId) -> bool {
        self.nsms.get(&nsm).is_some_and(|i| i.has_vm(vm))
    }

    /// Foreign addresses currently aliased onto local vNICs for
    /// warm-migrated connections, in address order.
    pub fn warm_aliases(&self) -> Vec<(u32, NsmId)> {
        self.aliases.iter().map(|(a, n)| (*a, *n)).collect()
    }

    /// Export a VM *with* the live state of its pinned connections — the
    /// warm half of "switch her NSM on the fly" across hosts. Every
    /// connection's TCP machine, ServiceLib translation context and guest
    /// socket are snapshotted and torn out; the VM instance then retires
    /// immediately (nothing is left to drain). Call inside a freeze window
    /// after [`NetKernelHost::vm_wire_quiet`] reports a clean cut.
    ///
    /// Pre-validates before touching anything: all pinned connections must
    /// sit on the VM's current (TCP-stack) NSM with their NSM-side sockets
    /// known, and the guest sockets must be in a transplantable state —
    /// otherwise the export refuses with [`NkError::InvalidState`] and the
    /// VM keeps serving untouched.
    pub fn export_vm_warm(&mut self, vm: VmId) -> NkResult<VmWarmExport> {
        let vm_cfg = self.cfg.vm(vm).cloned().ok_or(NkError::NotFound)?;
        if !self.guests.contains_key(&vm) {
            return Err(NkError::NotFound);
        }
        if self.draining.contains_key(&vm) {
            return Err(NkError::AlreadyRegistered);
        }
        let from_nsm = self.engine.nsm_of(vm).ok_or(NkError::NotFound)?;
        // Fold any completions still parked in the VM's NK-device queues
        // (DataReceived payloads, send credits, a reaped CloseComplete the
        // application has not polled for) into GuestLib state *before*
        // validating — the queues are dropped with the instance, payload
        // announced but not absorbed would be lost in the handover, and the
        // guest-socket states checked below must be the settled ones.
        self.guests
            .get_mut(&vm)
            .expect("presence checked above")
            .drive();
        let entries = self.engine.vm_entries(vm);
        // Pre-validation pass over every layer the destructive phase will
        // touch: nothing is torn out until the whole export is known to
        // succeed, so a refusal leaves the VM serving untouched.
        if !matches!(self.nsms.get(&from_nsm), Some(NsmInstance::Tcp(_))) {
            return Err(NkError::InvalidState);
        }
        for (key, entry) in &entries {
            if entry.nsm != from_nsm || entry.nsm_socket.is_none() {
                return Err(NkError::InvalidState);
            }
            let Some(NsmInstance::Tcp(n)) = self.nsms.get(&entry.nsm) else {
                return Err(NkError::InvalidState);
            };
            // The stack connection must be post-handshake; an embryonic or
            // dying connection refuses to snapshot, so refuse the whole
            // export before anything is torn out.
            if !n
                .stack()
                .conn_transplantable(entry.nsm_socket.expect("checked above"))
            {
                return Err(NkError::InvalidState);
            }
            // The guest socket must be transplantable too — a socket the
            // application is closing (Close NQE parked by the freeze) would
            // fail export_socket *after* the NSM state was torn out.
            let guest = self.guests.get(&vm).expect("checked above");
            if !guest.socket_transplantable(key.socket) {
                return Err(NkError::InvalidState);
            }
        }
        // Destructive phase — every step below succeeds by construction of
        // the checks above.
        let mut conns = Vec::new();
        for (key, _entry) in self.engine.extract_vm_entries(vm) {
            let Some(NsmInstance::Tcp(n)) = self.nsms.get_mut(&from_nsm) else {
                unreachable!("validated above");
            };
            let (tcp, pending_send, rx_outstanding) = n.export_conn(vm, key.socket)?;
            let guest = self
                .guests
                .get_mut(&vm)
                .expect("presence checked above")
                .export_socket(key.socket)?;
            conns.push(ConnSnapshot {
                guest_sock: key.socket,
                vm_queue_set: key.queue_set,
                tcp,
                pending_send,
                rx_outstanding,
                guest,
            });
        }
        // Nothing is pinned any more: the instance retires in place, and
        // the freeze window closes with it.
        self.retire_vm(vm).expect("extracted VM has nothing pinned");
        Ok(VmWarmExport {
            base: VmExport {
                vm: vm_cfg,
                from_nsm,
            },
            from_host: self.cfg.host_id,
            conns,
        })
    }

    /// Bring a warm-exported VM up on this host: the identity import of
    /// [`NetKernelHost::import_vm`] plus the installation of every
    /// transplanted connection — TCP state into `nsm`'s stack, translation
    /// context into its ServiceLib, tuples into the CoreEngine table, and
    /// the guest sockets (with their unread payload) into the fresh
    /// GuestLib. Each connection's original address is aliased onto the
    /// destination vNIC so rerouted frames land in the adopted stack.
    pub fn import_vm_warm(&mut self, export: &VmWarmExport, nsm: NsmId) -> NkResult<()> {
        let vm = export.vm_id();
        if self.import_fail_budget > 0 {
            self.import_fail_budget -= 1;
            return Err(NkError::NsmUnavailable);
        }
        if !matches!(self.nsms.get(&nsm), Some(NsmInstance::Tcp(_))) {
            return Err(NkError::NotFound);
        }
        // A transplanted address may be adopted as an alias only when it is
        // not the home vNIC address of a *different* alive local NSM —
        // aliasing over it would hijack that NSM's traffic. (A VM returning
        // to its origin host must land on the NSM whose address its
        // connections carry, or travel drained.)
        for ip in export.rerouted_ips() {
            let conflict = ip != self.nsm_addr(nsm)
                && self.cfg.nsms.iter().any(|n| {
                    n.id != nsm && self.nsms.contains_key(&n.id) && self.nsm_addr(n.id) == ip
                });
            if conflict {
                return Err(NkError::InvalidState);
            }
        }
        self.import_vm(&export.base, nsm)?;
        let mut installed: Vec<SocketId> = Vec::new();
        let mut added_aliases: Vec<u32> = Vec::new();
        let mut result = Ok(());
        for conn in &export.conns {
            let key = nk_types::ConnKey::vm(vm, conn.vm_queue_set, conn.guest_sock);
            // The engine pins the tuple with the same queue-set hash a
            // fresh connection would get; ServiceLib's proactive events
            // must ride that same set, so it is resolved first.
            let nsm_qs = match self.engine.nsm_queue_set_for(&key, nsm) {
                Ok(qs) => qs,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            let Some(NsmInstance::Tcp(n)) = self.nsms.get_mut(&nsm) else {
                unreachable!("validated above");
            };
            let stack_sock = match n.install_conn(vm, conn, nsm_qs.raw() as usize) {
                Ok(sock) => sock,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            installed.push(conn.guest_sock);
            let step = self
                .engine
                .install_entry(key, nsm, stack_sock)
                .map(|pinned_qs| {
                    debug_assert_eq!(pinned_qs, nsm_qs, "hash must agree across layers");
                })
                .and_then(|()| {
                    self.guests
                        .get_mut(&vm)
                        .expect("imported above")
                        .install_socket(&conn.guest)
                });
            if let Err(e) = step {
                result = Err(e);
                break;
            }
            let ip = conn.tcp.local.ip;
            if ip != self.nsm_addr(nsm) && self.aliases.get(&ip) != Some(&nsm) {
                // Attach — or re-point a stale mapping left by an earlier
                // warm hop — onto this NSM's vNIC port.
                let port = self
                    .nsm_ports
                    .get(&nsm)
                    .expect("TCP NSM has a vNIC port")
                    .clone();
                let rate = self
                    .cfg
                    .nsm(nsm)
                    .map(|n| n.nic_rate_gbps)
                    .unwrap_or(nk_types::constants::LINE_RATE_GBPS);
                self.switch
                    .attach_alias(ip, port, LinkConfig::ideal().with_rate_gbps(rate));
                self.aliases.insert(ip, nsm);
                added_aliases.push(ip);
            }
        }
        if let Err(e) = result {
            // Unwind the partial import so the caller can re-install the
            // export elsewhere: tuples unpin, installed connections leave
            // the stack *silently* (export, not close — no FIN may reach
            // the peer of a connection that lives on at the source),
            // adopted aliases detach, and the identity import retires.
            self.engine.extract_vm_entries(vm);
            for guest_sock in installed {
                if let Some(NsmInstance::Tcp(n)) = self.nsms.get_mut(&nsm) {
                    let _ = n.export_conn(vm, guest_sock);
                }
            }
            self.drop_aliases(|_, ip, _| added_aliases.contains(&ip));
            self.retire_vm(vm).expect("unpinned partial import retires");
            return Err(e);
        }
        Ok(())
    }

    /// Reconfigure the egress link towards an NSM's vNIC mid-flight (rate,
    /// loss, latency, reordering). Frames already in flight keep their
    /// original delivery schedule.
    pub fn degrade_nsm_link(&mut self, nsm: NsmId, fault: LinkFault) -> NkResult<()> {
        let nsm_cfg = self.cfg.nsm(nsm).ok_or(NkError::NotFound)?;
        let config = LinkConfig {
            // A fault with no explicit cap falls back to the vNIC's
            // configured line rate — restoring a degraded link must never
            // leave it faster than it was provisioned.
            rate_gbps: Some(fault.rate_gbps.unwrap_or(nsm_cfg.nic_rate_gbps)),
            latency_us: fault.latency_us,
            loss: fault.loss,
            reorder: fault.reorder,
            ..LinkConfig::default()
        };
        if self
            .switch
            .set_link_config(self.nsm_addr(nsm), config, self.now_ns)
        {
            Ok(())
        } else {
            Err(NkError::NotFound)
        }
    }
}

/// The baseline architecture: the network stack runs inside the guest and is
/// exposed through the same [`SocketApi`] as GuestLib, so identical
/// application code runs against either (paper §7.1 "Baseline").
pub struct BaselineVm {
    stack: TcpStack,
    /// Ordered so `epoll_wait` reports events deterministically.
    interest: BTreeMap<SocketId, PollEvents>,
    now_ns: u64,
}

impl BaselineVm {
    /// Create a baseline VM attached to `switch` at address `ip`.
    pub fn new(ip: u32, switch: &mut VirtualSwitch<Segment>) -> Self {
        let port = switch.attach(ip);
        BaselineVm {
            stack: TcpStack::new(StackConfig::new(ip), port),
            interest: BTreeMap::new(),
            now_ns: 0,
        }
    }

    /// Create a baseline VM with an explicit congestion-control algorithm.
    pub fn with_cc(ip: u32, switch: &mut VirtualSwitch<Segment>, cc: CcAlgorithm) -> Self {
        let port = switch.attach(ip);
        BaselineVm {
            stack: TcpStack::new(StackConfig::new(ip).with_cc(cc), port),
            interest: BTreeMap::new(),
            now_ns: 0,
        }
    }

    /// Advance the in-guest stack to `now_ns` and run its protocol work.
    pub fn step(&mut self, now_ns: u64) -> usize {
        self.now_ns = now_ns;
        let work = self.stack.tick(now_ns);
        // Readiness is read through `poll`/`epoll_wait`, never the events.
        self.stack.discard_events();
        work
    }

    /// Direct access to the in-guest stack.
    pub fn stack_mut(&mut self) -> &mut TcpStack {
        &mut self.stack
    }
}

impl SocketApi for BaselineVm {
    fn socket(&mut self) -> NkResult<SocketId> {
        Ok(self.stack.socket())
    }

    fn bind(&mut self, sock: SocketId, addr: SockAddr) -> NkResult<()> {
        self.stack.bind(sock, addr)
    }

    fn listen(&mut self, sock: SocketId, backlog: u32) -> NkResult<()> {
        self.stack.listen(sock, backlog)
    }

    fn accept(&mut self, sock: SocketId) -> NkResult<(SocketId, SockAddr)> {
        self.stack.accept(sock)
    }

    fn connect(&mut self, sock: SocketId, addr: SockAddr) -> NkResult<()> {
        self.stack.connect(sock, addr, self.now_ns)
    }

    fn send(&mut self, sock: SocketId, data: &[u8]) -> NkResult<usize> {
        self.stack.send(sock, data)
    }

    fn recv(&mut self, sock: SocketId, buf: &mut [u8]) -> NkResult<usize> {
        self.stack.recv(sock, buf)
    }

    fn set_sockopt(&mut self, sock: SocketId, opt: u32, value: u32) -> NkResult<()> {
        self.stack.set_sockopt(sock, opt, value)
    }

    fn shutdown(&mut self, sock: SocketId, how: ShutdownHow) -> NkResult<()> {
        self.stack.shutdown(sock, how)
    }

    fn close(&mut self, sock: SocketId) -> NkResult<()> {
        self.stack.close(sock)
    }

    fn epoll_register(&mut self, sock: SocketId, interest: PollEvents) -> NkResult<()> {
        self.interest.insert(sock, interest);
        Ok(())
    }

    fn epoll_unregister(&mut self, sock: SocketId) -> NkResult<()> {
        self.interest.remove(&sock);
        Ok(())
    }

    fn epoll_wait(&mut self, max_events: usize) -> Vec<EpollEvent> {
        let mut out = Vec::new();
        for (sock, interest) in &self.interest {
            if out.len() >= max_events {
                break;
            }
            let ready = self.stack.poll(*sock);
            let masked =
                PollEvents(ready.0 & (interest.0 | PollEvents::HUP.0 | PollEvents::ERROR.0));
            if !masked.is_empty() {
                out.push(EpollEvent {
                    socket: *sock,
                    events: masked,
                });
            }
        }
        out
    }

    fn poll(&mut self, sock: SocketId) -> PollEvents {
        self.stack.poll(sock)
    }

    fn drive(&mut self) -> usize {
        self.stack.tick(self.now_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_types::{NsmConfig, VmConfig, VmToNsmPolicy};

    const REMOTE_IP: u32 = 0x0A00_0100;

    /// Attach a remote at `REMOTE_IP` listening on port 7.
    fn remote_listener(host: &mut NetKernelHost) -> SocketId {
        let remote = host.add_remote(REMOTE_IP);
        let ls = remote.socket();
        remote.bind(ls, SockAddr::new(0, 7)).unwrap();
        remote.listen(ls, 16).unwrap();
        ls
    }

    /// Open a socket on VM 1 and start connecting it to that listener.
    fn guest_connect(host: &mut NetKernelHost) -> SocketId {
        let guest = host.guest_mut(VmId(1)).unwrap();
        let s = guest.socket().unwrap();
        guest.connect(s, SockAddr::new(REMOTE_IP, 7)).unwrap();
        s
    }

    fn one_vm_host(stack: StackKind) -> NetKernelHost {
        let nsm = match stack {
            StackKind::Mtcp => NsmConfig::mtcp(NsmId(1)),
            StackKind::SharedMem => NsmConfig::shared_mem(NsmId(1)),
            StackKind::FairShare => NsmConfig::fair_share(NsmId(1)),
            StackKind::Kernel => NsmConfig::kernel(NsmId(1)),
        };
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(nsm)
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        NetKernelHost::new(cfg).unwrap()
    }

    /// End-to-end: a guest application talks through GuestLib → CoreEngine →
    /// kernel-stack NSM → virtual switch → a remote echo server, and back.
    #[test]
    fn guest_reaches_remote_server_through_nsm() {
        let mut host = one_vm_host(StackKind::Kernel);
        // Remote server listening on port 7.
        let ls = remote_listener(&mut host);

        // Guest connects and sends a request.
        let s = guest_connect(&mut host);
        host.run(20, 100_000);

        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable(), "connect did not complete");
        assert_eq!(guest.send(s, b"hello from the vm").unwrap(), 17);
        host.run(20, 100_000);

        // The remote sees the data and answers.
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let (conn, _) = remote.accept(ls).unwrap();
        let mut buf = [0u8; 64];
        let n = remote.recv(conn, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello from the vm");
        remote.send(conn, b"hello from outside").unwrap();
        host.run(20, 100_000);

        let guest = host.guest_mut(VmId(1)).unwrap();
        let mut buf = [0u8; 64];
        let n = guest.recv(s, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello from outside");
        assert!(host.engine_stats().nqes_switched > 0);
        assert!(host.nsm_service_stats(NsmId(1)).unwrap().bytes_tx >= 17);
    }

    /// One hugepage (2 MB) shared by ten receiving sockets whose receive
    /// budgets add up to 2.5 MB: while the application is not reading, the
    /// region runs out, and every byte must still arrive, in order, once it
    /// does read. ServiceLib only takes from the stack what it has a chunk
    /// for.
    #[test]
    fn one_hugepage_under_ten_receivers_loses_nothing() {
        const CONNS: usize = 10;
        const PER_CONN: usize = 400_000;
        let mut cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        cfg.hugepages_per_pair = 1;
        let mut host = NetKernelHost::new(cfg).unwrap();
        let ls = remote_listener(&mut host);

        // Connect one at a time so guest socket i is remote connection i.
        let mut socks = Vec::new();
        let mut conns = Vec::new();
        for _ in 0..CONNS {
            let s = guest_connect(&mut host);
            host.run(20, 100_000);
            socks.push(s);
            conns.push(host.remote_mut(REMOTE_IP).unwrap().accept(ls).unwrap().0);
        }
        let byte = |conn: usize, i: usize| ((i * 31 + conn * 7) % 251) as u8;

        let mut sent = [0usize; CONNS];
        let mut got: Vec<Vec<u8>> = vec![Vec::new(); CONNS];
        let mut buf = vec![0u8; 64 * 1024];
        for round in 0..6_000 {
            let remote = host.remote_mut(REMOTE_IP).unwrap();
            for (c, &conn) in conns.iter().enumerate() {
                let end = PER_CONN.min(sent[c] + 32 * 1024);
                let chunk: Vec<u8> = (sent[c]..end).map(|i| byte(c, i)).collect();
                sent[c] += remote.send(conn, &chunk).unwrap_or(0);
            }
            host.run(1, 100_000);
            // The application sleeps through the first 300 rounds.
            if round < 300 {
                continue;
            }
            let guest = host.guest_mut(VmId(1)).unwrap();
            for (c, &s) in socks.iter().enumerate() {
                while let Ok(n) = guest.recv(s, &mut buf) {
                    got[c].extend_from_slice(&buf[..n]);
                }
            }
            if got.iter().all(|g| g.len() >= PER_CONN) {
                break;
            }
        }
        let region = host.guest_mut(VmId(1)).unwrap().region().stats();
        assert!(region.failed_allocs > 0, "the hugepage never ran out");
        for (c, g) in got.iter().enumerate() {
            assert_eq!(g.len(), PER_CONN, "connection {c}: bytes lost");
            assert!(
                g.iter().enumerate().all(|(i, &b)| b == byte(c, i)),
                "connection {c}: bytes reordered or corrupted"
            );
        }
        assert_eq!(region.chunks, 0, "chunks leaked");
    }

    /// A remote's application polls its sockets and never reads the stack's
    /// events (before: one queued entry per readiness edge for the life of
    /// the host — 8 MB per `rpc` window of `nkbench`). The host drops them
    /// after every tick, and polling readiness is unaffected.
    #[test]
    fn a_remotes_unread_events_do_not_pile_up() {
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let mut host = NetKernelHost::new(cfg).unwrap();
        let ls = remote_listener(&mut host);
        let s = guest_connect(&mut host);
        host.run(20, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        assert!(remote.take_events().is_empty(), "the accept edge was kept");
        let (conn, _) = remote.accept(ls).unwrap();

        let mut buf = [0u8; 64];
        for i in 0..50u8 {
            host.guest_mut(VmId(1)).unwrap().send(s, &[i; 64]).unwrap();
            host.run(5, 100_000);
            let remote = host.remote_mut(REMOTE_IP).unwrap();
            assert!(TcpStack::poll(remote, conn).readable());
            assert_eq!(remote.recv(conn, &mut buf).unwrap(), 64);
            assert_eq!(buf, [i; 64]);
            assert!(remote.take_events().is_empty(), "message {i}");
        }
    }

    /// Two VMs multiplexed onto the same NSM (use case 1): both make
    /// independent connections through one stack.
    #[test]
    fn two_vms_share_one_nsm() {
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_vm(VmConfig::new(VmId(2)))
            .with_nsm(NsmConfig::kernel(NsmId(1)).with_vcpus(2))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let mut host = NetKernelHost::new(cfg).unwrap();
        let remote = host.add_remote(REMOTE_IP);
        let ls = remote.socket();
        remote.bind(ls, SockAddr::new(0, 80)).unwrap();
        remote.listen(ls, 64).unwrap();

        for vm in [VmId(1), VmId(2)] {
            let guest = host.guest_mut(vm).unwrap();
            let s = guest.socket().unwrap();
            guest.connect(s, SockAddr::new(REMOTE_IP, 80)).unwrap();
        }
        host.run(30, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let mut accepted = 0;
        while remote.accept(ls).is_ok() {
            accepted += 1;
        }
        assert_eq!(accepted, 2, "both VMs' connections reach the shared NSM");
    }

    /// Colocated VMs of the same tenant exchange data through the
    /// shared-memory NSM without any TCP processing (use case 4).
    #[test]
    fn shared_memory_nsm_connects_colocated_vms() {
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)).with_tenant(7))
            .with_vm(VmConfig::new(VmId(2)).with_tenant(7))
            .with_nsm(NsmConfig::shared_mem(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let mut host = NetKernelHost::new(cfg).unwrap();

        // VM1 listens (via the shared-memory NSM's internal rendezvous).
        let g1 = host.guest_mut(VmId(1)).unwrap();
        let ls = g1.socket().unwrap();
        g1.bind(ls, SockAddr::new(0, 9000)).unwrap();
        g1.listen(ls, 8).unwrap();
        host.run(5, 100_000);

        // VM2 connects and sends.
        let g2 = host.guest_mut(VmId(2)).unwrap();
        let cs = g2.socket().unwrap();
        g2.connect(cs, SockAddr::new(0, 9000)).unwrap();
        host.run(5, 100_000);
        let g2 = host.guest_mut(VmId(2)).unwrap();
        assert!(g2.poll(cs).writable());
        g2.send(cs, b"colocated traffic").unwrap();
        host.run(5, 100_000);

        let g1 = host.guest_mut(VmId(1)).unwrap();
        let (conn, _) = g1.accept(ls).unwrap();
        let mut buf = [0u8; 64];
        let n = g1.recv(conn, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"colocated traffic");
        assert_eq!(host.shm_stats(NsmId(1)).unwrap().pairs, 1);
    }

    /// Driving a split host — lanes polled to quiescence, hub at each round
    /// barrier — is byte-identical to the serial cluster-facing protocol:
    /// same round count, same stats, same bytes on the wire. This is the
    /// host-level commutation property intra-host sharding rests on.
    #[test]
    fn lane_decomposition_matches_serial_poll_protocol() {
        let rig = || {
            let cfg = HostConfig::new()
                .with_vm(VmConfig::new(VmId(1)))
                .with_vm(VmConfig::new(VmId(2)))
                .with_nsm(NsmConfig::kernel(NsmId(1)))
                .with_nsm(NsmConfig::kernel(NsmId(2)))
                .with_mapping(VmToNsmPolicy::Static(vec![
                    (VmId(1), NsmId(1)),
                    (VmId(2), NsmId(2)),
                ]));
            let mut host = NetKernelHost::new(cfg).unwrap();
            host.enable_pool_accounting(Some(2_000_000_000));
            let ls = remote_listener(&mut host);
            let mut socks = Vec::new();
            for vm in [VmId(1), VmId(2)] {
                let guest = host.guest_mut(vm).unwrap();
                let s = guest.socket().unwrap();
                guest.connect(s, SockAddr::new(REMOTE_IP, 7)).unwrap();
                socks.push((vm, s));
            }
            (host, ls, socks)
        };
        let (mut serial, ls_a, socks_a) = rig();
        let (mut laned, ls_b, socks_b) = rig();

        let mut rounds_a = Vec::new();
        let mut rounds_b = Vec::new();
        for step in 0..24 {
            // Both hosts get the same guest-side pushes between steps.
            if step == 8 {
                for (host, socks) in [(&mut serial, &socks_a), (&mut laned, &socks_b)] {
                    for (vm, s) in socks {
                        let guest = host.guest_mut(*vm).unwrap();
                        assert!(guest.poll(*s).writable(), "connect incomplete");
                        guest.send(*s, b"lane equivalence payload").unwrap();
                    }
                }
            }
            serial.begin_step(100_000);
            let mut rounds = 0;
            loop {
                rounds += 1;
                if serial.poll_round() == 0 {
                    break;
                }
            }
            serial.end_step();
            rounds_a.push(rounds);

            laned.begin_step(100_000);
            let mut lanes = laned.split_lanes();
            assert_eq!(lanes.len(), 2, "disjoint shares must form two lanes");
            let mut rounds = 0;
            loop {
                rounds += 1;
                let mut work = 0;
                // Reverse key order on purpose: lane order must not matter.
                for lane in lanes.values_mut().rev() {
                    work += lane.poll_round(laned.now_ns());
                }
                work += laned.hub_round(laned.now_ns());
                if work == 0 {
                    break;
                }
            }
            laned.absorb_lanes(lanes);
            laned.end_step();
            rounds_b.push(rounds);
        }
        assert_eq!(rounds_a, rounds_b, "round counts diverged");
        assert_eq!(serial.engine_stats(), laned.engine_stats());
        for nsm in [NsmId(1), NsmId(2)] {
            assert_eq!(
                serial.nsm_service_stats(nsm),
                laned.nsm_service_stats(nsm),
                "nsm {nsm:?} stats diverged"
            );
        }
        for vm in [VmId(1), VmId(2)] {
            assert_eq!(serial.vm_switch_stats(vm), laned.vm_switch_stats(vm));
        }
        let loads = laned.take_lane_loads();
        assert!(loads.values().all(|w| *w > 0), "lanes reported no load");

        // The payloads crossed identically.
        for (host, ls) in [(&mut serial, ls_a), (&mut laned, ls_b)] {
            let remote = host.remote_mut(REMOTE_IP).unwrap();
            let mut total = 0;
            while let Ok((conn, _)) = remote.accept(ls) {
                let mut buf = [0u8; 256];
                while let Ok(n) = remote.recv(conn, &mut buf) {
                    if n == 0 {
                        break;
                    }
                    total += n;
                }
            }
            assert_eq!(total, 2 * b"lane equivalence payload".len());
        }
    }

    /// A VM pinned to two NSM shares (its mapping moved after connections
    /// were established) fuses both shares into one lane — the split never
    /// severs a live edge.
    #[test]
    fn split_lanes_fuses_shares_linked_by_one_vm() {
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_vm(VmConfig::new(VmId(2)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(2)))
            .with_nsm(NsmConfig::kernel(NsmId(3)))
            .with_mapping(VmToNsmPolicy::Static(vec![
                (VmId(1), NsmId(1)),
                (VmId(2), NsmId(3)),
            ]));
        let mut host = NetKernelHost::new(cfg).unwrap();
        let ls = remote_listener(&mut host);
        let s = guest_connect(&mut host);
        host.run(20, 100_000);

        // VM 1 keeps its pinned connection on NSM 1 but new connections go
        // to NSM 2: both shares now share VM 1's state.
        host.migrate_vm(VmId(1), NsmId(2)).unwrap();
        let lanes = host.split_lanes();
        let keys: Vec<NsmId> = lanes.keys().copied().collect();
        assert_eq!(keys, vec![NsmId(1), NsmId(3)], "NSM 1+2 must fuse");
        assert_eq!(lanes[&NsmId(1)].key(), NsmId(1));
        host.absorb_lanes(lanes);

        // The host is whole again: the pinned connection still drains.
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable());
        guest.send(s, b"post-absorb").unwrap();
        host.run(20, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let (conn, _) = remote.accept(ls).unwrap();
        let mut buf = [0u8; 64];
        let n = remote.recv(conn, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"post-absorb");
    }

    /// The same application code runs against the baseline in-guest stack.
    #[test]
    fn baseline_vm_runs_the_same_application_code() {
        let mut switch = VirtualSwitch::new();
        let mut client = BaselineVm::new(1, &mut switch);
        let mut server = BaselineVm::new(2, &mut switch);

        let ls = server.socket().unwrap();
        server.bind(ls, SockAddr::new(0, 80)).unwrap();
        server.listen(ls, 8).unwrap();

        let cs = client.socket().unwrap();
        client.connect(cs, SockAddr::new(2, 80)).unwrap();
        for i in 1..20u64 {
            let now = i * 100_000;
            client.step(now);
            server.step(now);
            switch.step(now);
        }
        client.send(cs, b"same code as netkernel").unwrap();
        for i in 20..40u64 {
            let now = i * 100_000;
            client.step(now);
            server.step(now);
            switch.step(now);
        }
        let (conn, _) = server.accept(ls).unwrap();
        let mut buf = [0u8; 64];
        let n = server.recv(conn, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"same code as netkernel");
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = HostConfig::new().with_vm(VmConfig::new(VmId(1)).with_vcpus(0));
        assert!(NetKernelHost::new(cfg).is_err());
    }

    /// A deep backlog of requests drains within a single host step: the
    /// step keeps polling until the datapath is quiescent instead of
    /// sweeping a fixed number of passes.
    #[test]
    fn deep_queue_round_trips_complete_in_one_step() {
        let mut host = one_vm_host(StackKind::Kernel);
        let ls = remote_listener(&mut host);

        let s = guest_connect(&mut host);
        host.run(20, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable(), "connect did not complete");

        // Pile up a deep backlog before letting the host move at all.
        let payload = [0x5Au8; 16];
        for _ in 0..32 {
            assert_eq!(guest.send(s, &payload).unwrap(), payload.len());
        }
        let before = host.sched_stats();
        let work = host.step(100_000);
        let after = host.sched_stats();
        // Working rounds plus the quiescent round that ended the step.
        assert!(after.rounds - before.rounds >= 2, "{before:?} → {after:?}");
        assert_eq!(after.quiescent_exits, before.quiescent_exits + 1);
        assert_eq!(after.round_limit_hits, before.round_limit_hits);
        assert_eq!(after.work_items - before.work_items, work as u64);
        assert!(work >= 32, "every queued request is a work item: {work}");

        // Everything crossed guest → engine → NSM → switch → remote in that
        // one step.
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let (conn, _) = remote.accept(ls).unwrap();
        let mut buf = [0u8; 1024];
        let mut received = 0;
        while let Ok(n) = remote.recv(conn, &mut buf) {
            if n == 0 {
                break;
            }
            received += n;
        }
        assert_eq!(received, 32 * payload.len());
    }

    /// Every step either reaches quiescence or hits the round bound, and an
    /// idle step is exactly one quiescent round of no work.
    #[test]
    fn scheduler_accounts_for_every_step() {
        let mut host = one_vm_host(StackKind::Kernel);
        host.run(10, 100_000);
        let stats = host.sched_stats();
        assert_eq!(stats.steps, 10);
        assert_eq!(stats.quiescent_exits + stats.round_limit_hits, stats.steps);
        assert_eq!(
            (stats.rounds, stats.quiescent_exits, stats.work_items),
            (10, 10, 0),
            "idle steps must exit on quiescence after one round, not at the bound"
        );
    }

    /// A round bound of 1 degrades gracefully: progress is slower (one poll
    /// round per step) but the datapath still works end to end.
    #[test]
    fn single_round_bound_still_serves_traffic() {
        let nsm = NsmConfig::kernel(NsmId(1));
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(nsm)
            .with_mapping(VmToNsmPolicy::All(NsmId(1)))
            .with_max_poll_rounds(1);
        let mut host = NetKernelHost::new(cfg).unwrap();
        remote_listener(&mut host);

        let s = guest_connect(&mut host);
        host.run(60, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable(), "connect did not complete");
        let stats = host.sched_stats();
        assert_eq!(stats.rounds, stats.steps);
        // A round that reported work at the bound is a limit hit, never a
        // quiescent exit.
        assert!(stats.round_limit_hits > 0, "{stats:?}");
        assert_eq!(stats.quiescent_exits + stats.round_limit_hits, stats.steps);
    }

    #[test]
    fn zero_poll_rounds_is_rejected() {
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)))
            .with_max_poll_rounds(0);
        assert!(NetKernelHost::new(cfg).is_err());
    }

    use nk_types::faults::{FaultAction, FaultPlan, LinkFault};

    /// Crash the serving NSM mid-connection: the guest socket observes a
    /// reset, and after a restart the guest reconnects with no app changes.
    #[test]
    fn nsm_crash_resets_sockets_and_restart_recovers() {
        let mut host = one_vm_host(StackKind::Kernel);
        remote_listener(&mut host);

        let s = guest_connect(&mut host);
        host.run(20, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable(), "connect did not complete");

        // Crash. The established connection dies with ConnReset.
        let resets = host.crash_nsm(NsmId(1)).unwrap();
        assert!(resets >= 1, "the live connection must be reset");
        assert!(!host.has_nsm(NsmId(1)));
        host.run(2, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).error());
        assert_eq!(guest.recv(s, &mut [0u8; 8]), Err(NkError::ConnReset));
        assert!(guest.stats().errors >= 1);

        // While the NSM is down, new sockets fail fast.
        let guest = host.guest_mut(VmId(1)).unwrap();
        let dead = guest.socket().unwrap();
        host.run(2, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        guest.drive();
        assert_eq!(guest.send(dead, b"x"), Err(NkError::NsmUnavailable));

        // Restart and reconnect: same application pattern, fresh socket.
        host.restart_nsm(NsmId(1)).unwrap();
        assert!(host.has_nsm(NsmId(1)));
        let guest = host.guest_mut(VmId(1)).unwrap();
        let _ = guest.close(s);
        let _ = guest.close(dead);
        let s2 = guest.socket().unwrap();
        guest.connect(s2, SockAddr::new(REMOTE_IP, 7)).unwrap();
        host.run(20, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s2).writable(), "reconnect after restart failed");
    }

    /// Live migration: after `migrate_vm` new connections are served by the
    /// standby NSM while the crashed primary stays down.
    #[test]
    fn vm_migrates_to_standby_nsm_after_crash() {
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(2)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let mut host = NetKernelHost::new(cfg).unwrap();
        remote_listener(&mut host);

        host.crash_nsm(NsmId(1)).unwrap();
        host.migrate_vm(VmId(1), NsmId(2)).unwrap();
        assert_eq!(host.nsm_of(VmId(1)), Some(NsmId(2)));

        let s = guest_connect(&mut host);
        host.run(20, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable(), "standby NSM must serve the VM");
        assert!(host.nsm_service_stats(NsmId(2)).unwrap().requests > 0);
    }

    /// An installed fault plan fires in the step's inject phase at the
    /// configured virtual times, and fault events count as step work.
    #[test]
    fn fault_plan_applies_at_scheduled_times() {
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(2)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let mut host = NetKernelHost::new(cfg).unwrap();
        let plan = FaultPlan::new()
            .at(250_000, FaultAction::CrashNsm(NsmId(1)))
            .at(
                250_000,
                FaultAction::MigrateVm {
                    vm: VmId(1),
                    to: NsmId(2),
                },
            )
            .at(
                450_000,
                FaultAction::DegradeLink {
                    nsm: NsmId(2),
                    link: LinkFault::default().with_latency_us(100),
                },
            )
            .at(650_000, FaultAction::RestartNsm(NsmId(1)));
        host.install_fault_plan(&plan).unwrap();
        assert_eq!(host.pending_faults(), 4);

        host.step(100_000); // t=100µs: nothing due
        assert_eq!(host.fault_stats().applied, 0);
        assert!(host.has_nsm(NsmId(1)));
        assert!(host.step(200_000) >= 2); // t=300µs: crash + migrate fire together
        assert_eq!(host.fault_stats().applied, 2);
        assert!(!host.has_nsm(NsmId(1)));
        assert_eq!(host.nsm_of(VmId(1)), Some(NsmId(2)));
        // t=500µs: link degradation. A step whose only activity is a fault
        // is not idle: one (quiescent) round, one work item.
        let rounds = host.sched_stats().rounds;
        assert_eq!(host.step(200_000), 1);
        assert_eq!(host.sched_stats().rounds, rounds + 1);
        assert_eq!(host.fault_stats().link_changes, 1);
        host.step(200_000); // t=700µs: restart
        assert_eq!(host.fault_stats().applied, 4);
        assert!(host.has_nsm(NsmId(1)));
        assert_eq!(host.pending_faults(), 0);
        let stats = host.sched_stats();
        assert_eq!(stats.fault_events, 4);
        assert!(stats.work_items >= 4, "{stats:?}");
    }

    #[test]
    fn invalid_fault_plans_are_rejected_at_install() {
        let mut host = one_vm_host(StackKind::Kernel);
        let plan = FaultPlan::new().at(0, FaultAction::CrashNsm(NsmId(9)));
        assert_eq!(host.install_fault_plan(&plan), Err(NkError::BadConfig));
        let plan = FaultPlan::new().at(0, FaultAction::RestartNsm(NsmId(1)));
        assert_eq!(host.install_fault_plan(&plan), Err(NkError::BadConfig));
    }

    use nk_types::{ControlAction, ControlPolicy};

    /// Without a control policy the host never emits control events and the
    /// allocation stays exactly as configured.
    #[test]
    fn control_disabled_hosts_keep_a_static_allocation() {
        let mut host = one_vm_host(StackKind::Kernel);
        host.run(50, 100_000);
        assert!(host.control_events().is_empty());
        assert_eq!(host.engine_cores(), 1);
        assert_eq!(host.nsm_cores(NsmId(1)), Some(1));
        assert_eq!(host.sched_stats().control_actions, 0);
    }

    /// A sustained workload against a small accounting clock drives the NSM
    /// over the high watermark: the autoscaler grows it, and once the load
    /// stops and the cooldown passes it shrinks back to the floor.
    #[test]
    fn control_plane_scales_nsm_up_under_load_and_down_when_idle() {
        let policy = ControlPolicy::new()
            .with_epoch_ns(1_000_000)
            .with_window(2)
            .with_watermarks(0.1, 0.6)
            .with_core_bounds(1, 4)
            .with_cooldown(1)
            .with_rebalance(0.9, 0) // no migrations in this test
            .with_pool_clock_hz(1_000_000);
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)))
            .with_control(policy);
        let mut host = NetKernelHost::new(cfg).unwrap();
        let ls = remote_listener(&mut host);

        let s = guest_connect(&mut host);
        host.run(10, 100_000);

        // Keep the NSM busy every step for several epochs.
        for _ in 0..60 {
            let guest = host.guest_mut(VmId(1)).unwrap();
            let _ = guest.send(s, &[0x11u8; 512]);
            host.step(100_000);
            let remote = host.remote_mut(REMOTE_IP).unwrap();
            if let Ok((conn, _)) = remote.accept(ls) {
                let _ = conn; // server just accumulates the bytes
            }
        }
        assert!(
            host.control_events()
                .iter()
                .any(|e| matches!(e.action, ControlAction::ScaleUp { .. })),
            "no scale-up under sustained load: {:?}",
            host.control_events()
        );
        assert!(host.nsm_cores(NsmId(1)).unwrap() > 1);
        // Control actions are tallied one for one and count as step work.
        let stats = host.sched_stats();
        assert_eq!(stats.control_actions, host.control_events().len() as u64);
        assert!(stats.work_items >= stats.control_actions);

        // Let the workload go idle: the allocation returns to the floor.
        host.run(120, 100_000);
        assert!(
            host.control_events()
                .iter()
                .any(|e| matches!(e.action, ControlAction::ScaleDown { .. })),
            "no scale-down after the load stopped: {:?}",
            host.control_events()
        );
        assert_eq!(host.nsm_cores(NsmId(1)), Some(1));
    }

    #[test]
    fn invalid_control_policy_is_rejected_at_build() {
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)))
            .with_control(ControlPolicy::new().with_watermarks(0.9, 0.1));
        assert!(NetKernelHost::new(cfg).is_err());
    }

    /// A non-zero host id shifts every NSM vNIC into the host's own /16
    /// block; the datapath works unchanged inside it.
    #[test]
    fn host_id_shifts_nsm_addresses() {
        let cfg = HostConfig::new()
            .with_host_id(nk_types::HostId(3))
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let mut host = NetKernelHost::new(cfg).unwrap();
        assert_eq!(host.nsm_addr(NsmId(1)), 0x0A03_0001);
        assert_eq!(host.host_id(), nk_types::HostId(3));
        // A remote inside the host's block is reachable as before.
        let remote_ip = 0x0A03_0100;
        let remote = host.add_remote(remote_ip);
        let ls = remote.socket();
        remote.bind(ls, SockAddr::new(0, 7)).unwrap();
        remote.listen(ls, 4).unwrap();
        let guest = host.guest_mut(VmId(1)).unwrap();
        let s = guest.socket().unwrap();
        guest.connect(s, SockAddr::new(remote_ip, 7)).unwrap();
        host.run(20, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable());
    }

    /// The begin/poll/end step protocol the cluster drives is equivalent to
    /// `step()` for a single host: the same traffic completes.
    #[test]
    fn split_step_protocol_serves_traffic() {
        let mut host = one_vm_host(StackKind::Kernel);
        let ls = remote_listener(&mut host);
        let s = guest_connect(&mut host);
        for _ in 0..20 {
            host.begin_step(100_000);
            while host.poll_round() > 0 {}
            host.end_step();
        }
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable(), "connect did not complete");
        assert_eq!(guest.send(s, b"split step").unwrap(), 10);
        for _ in 0..5 {
            host.begin_step(100_000);
            while host.poll_round() > 0 {}
            host.end_step();
        }
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let (conn, _) = remote.accept(ls).unwrap();
        let mut buf = [0u8; 32];
        assert_eq!(remote.recv(conn, &mut buf).unwrap(), 10);
    }

    /// Export → import across two hosts: the drain counter tracks pinned
    /// connections, retire refuses while pinned, and the fully drained
    /// source NSM share scales to zero.
    #[test]
    fn export_import_drain_and_scale_to_zero() {
        let src_cfg = HostConfig::new()
            .with_host_id(nk_types::HostId(1))
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let dst_cfg = HostConfig::new()
            .with_host_id(nk_types::HostId(2))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let mut src = NetKernelHost::new(src_cfg).unwrap();
        let mut dst = NetKernelHost::new(dst_cfg).unwrap();

        // Pin one connection on the source.
        let remote = src.add_remote(0x0A01_0100);
        let ls = remote.socket();
        remote.bind(ls, SockAddr::new(0, 7)).unwrap();
        remote.listen(ls, 4).unwrap();
        let guest = src.guest_mut(VmId(1)).unwrap();
        let s = guest.socket().unwrap();
        guest.connect(s, SockAddr::new(0x0A01_0100, 7)).unwrap();
        src.run(20, 100_000);
        assert!(src.vm_pinned(VmId(1)) >= 1);

        let export = src.export_vm(VmId(1)).unwrap();
        assert_eq!(export.from_nsm, NsmId(1));
        assert_eq!(src.draining_vms(), vec![(VmId(1), NsmId(1))]);
        // Double export is refused.
        assert_eq!(src.export_vm(VmId(1)), Err(NkError::AlreadyRegistered));
        // Retire refuses while the connection is pinned.
        assert_eq!(src.retire_vm(VmId(1)), Err(NkError::InvalidState));
        assert!(!src.retire_nsm_if_drained(NsmId(1)));

        // The destination brings the VM up and serves new connections.
        dst.import_vm(&export, NsmId(1)).unwrap();
        assert_eq!(dst.nsm_of(VmId(1)), Some(NsmId(1)));
        assert_eq!(
            dst.import_vm(&export, NsmId(1)),
            Err(NkError::AlreadyRegistered)
        );
        let remote2 = dst.add_remote(0x0A02_0100);
        let ls2 = remote2.socket();
        remote2.bind(ls2, SockAddr::new(0, 7)).unwrap();
        remote2.listen(ls2, 4).unwrap();
        let guest2 = dst.guest_mut(VmId(1)).unwrap();
        let s2 = guest2.socket().unwrap();
        guest2.connect(s2, SockAddr::new(0x0A02_0100, 7)).unwrap();
        dst.run(20, 100_000);
        let guest2 = dst.guest_mut(VmId(1)).unwrap();
        assert!(guest2.poll(s2).writable(), "imported VM must serve");

        // Close the pinned connection: the drain completes and the source
        // share retires to zero cores.
        let guest = src.guest_mut(VmId(1)).unwrap();
        guest.close(s).unwrap();
        src.run(10, 100_000);
        assert_eq!(src.vm_pinned(VmId(1)), 0);
        src.retire_vm(VmId(1)).unwrap();
        assert!(src.guest_mut(VmId(1)).is_none());
        assert!(src.config().vm(VmId(1)).is_none());
        assert!(src.retire_nsm_if_drained(NsmId(1)));
        assert_eq!(src.nsm_cores(NsmId(1)), Some(0));
        // Retiring twice is a no-op.
        assert!(!src.retire_nsm_if_drained(NsmId(1)));
    }

    /// Intra-host migration must detach the VM from the source NSM: the
    /// stale mapping used to leak the region, and a later crash + restart
    /// of the source NSM must not resurrect the migrated VM.
    #[test]
    fn intra_host_migration_detaches_the_source_nsm() {
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(2)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let mut host = NetKernelHost::new(cfg).unwrap();
        assert!(host.nsm_serves_vm(NsmId(1), VmId(1)));

        // No pinned connections: the migration detaches immediately.
        host.migrate_vm(VmId(1), NsmId(2)).unwrap();
        assert!(host.nsm_serves_vm(NsmId(2), VmId(1)));
        assert!(
            !host.nsm_serves_vm(NsmId(1), VmId(1)),
            "the source NSM must forget a migrated-away VM"
        );

        // Crash and restart the old NSM: the VM is not re-added (it maps
        // to NSM 2), and the restarted instance serves nothing for it.
        host.crash_nsm(NsmId(1)).unwrap();
        host.restart_nsm(NsmId(1)).unwrap();
        assert!(
            !host.nsm_serves_vm(NsmId(1), VmId(1)),
            "restart must not resurrect a migrated VM"
        );
        assert_eq!(host.nsm_of(VmId(1)), Some(NsmId(2)));

        // The VM still serves through its new NSM.
        let remote = host.add_remote(REMOTE_IP);
        let ls = remote.socket();
        remote.bind(ls, SockAddr::new(0, 7)).unwrap();
        remote.listen(ls, 4).unwrap();
        let s = guest_connect(&mut host);
        host.run(20, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable());
    }

    /// While connections are still pinned to the source NSM, migration
    /// keeps the region attached there (the pinned connections need it);
    /// retiring the VM later sweeps every instance.
    #[test]
    fn migration_with_pinned_connections_defers_the_detach() {
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(2)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let mut host = NetKernelHost::new(cfg).unwrap();
        let remote = host.add_remote(REMOTE_IP);
        let ls = remote.socket();
        remote.bind(ls, SockAddr::new(0, 7)).unwrap();
        remote.listen(ls, 4).unwrap();
        let s = guest_connect(&mut host);
        host.run(20, 100_000);
        assert!(host.vm_pinned(VmId(1)) >= 1);

        host.migrate_vm(VmId(1), NsmId(2)).unwrap();
        assert!(
            host.nsm_serves_vm(NsmId(1), VmId(1)),
            "pinned connections still need the source region"
        );
        // The pinned connection keeps streaming through the old NSM.
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert_eq!(guest.send(s, b"still via nsm1").unwrap(), 14);
        host.run(10, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let (conn, _) = remote.accept(ls).unwrap();
        let mut buf = [0u8; 32];
        assert_eq!(remote.recv(conn, &mut buf).unwrap(), 14);

        // Drain and retire: now every instance forgets the VM.
        let guest = host.guest_mut(VmId(1)).unwrap();
        guest.close(s).unwrap();
        host.run(10, 100_000);
        host.export_vm(VmId(1)).unwrap();
        host.retire_vm(VmId(1)).unwrap();
        assert!(!host.nsm_serves_vm(NsmId(1), VmId(1)));
        assert!(!host.nsm_serves_vm(NsmId(2), VmId(1)));
    }

    /// `import_vm` is atomic: a failed import leaves no residue (a retry
    /// succeeds), and an import onto a host whose config already lists the
    /// VM never duplicates the entry.
    #[test]
    fn import_vm_unwinds_on_failure_and_never_duplicates_config() {
        let src_cfg = HostConfig::new()
            .with_host_id(nk_types::HostId(1))
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let dst_cfg = HostConfig::new()
            .with_host_id(nk_types::HostId(2))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let mut src = NetKernelHost::new(src_cfg).unwrap();
        let mut dst = NetKernelHost::new(dst_cfg).unwrap();

        let export = src.export_vm(VmId(1)).unwrap();
        // Import onto a non-existent NSM fails up front, leaving nothing.
        assert_eq!(dst.import_vm(&export, NsmId(9)), Err(NkError::NotFound));
        assert!(!dst.has_vm(VmId(1)));
        assert!(dst.config().vm(VmId(1)).is_none());
        // The retry (the cancelled-then-retried flow) succeeds cleanly.
        dst.import_vm(&export, NsmId(1)).unwrap();
        assert_eq!(
            dst.config().vms.iter().filter(|v| v.id == VmId(1)).count(),
            1
        );
        // Re-import of a resident VM is refused without a second push.
        assert_eq!(
            dst.import_vm(&export, NsmId(1)),
            Err(NkError::AlreadyRegistered)
        );
        assert_eq!(
            dst.config().vms.iter().filter(|v| v.id == VmId(1)).count(),
            1
        );

        // Bounce the VM around: export → retire → import again; the config
        // entry count stays exactly one through the whole cycle.
        src.retire_vm(VmId(1)).unwrap();
        let export_back = dst.export_vm(VmId(1)).unwrap();
        dst.retire_vm(VmId(1)).unwrap();
        src.import_vm(&export_back, NsmId(1)).unwrap();
        assert_eq!(
            src.config().vms.iter().filter(|v| v.id == VmId(1)).count(),
            1
        );
    }

    /// Warm export tears the whole pinned connection out (TCP state,
    /// ServiceLib context, guest socket), retires the source instance with
    /// zero drain, and the import recreates everything — including the
    /// address alias for the transplanted tuple.
    #[test]
    fn warm_export_import_moves_connection_state_between_hosts() {
        let src_cfg = HostConfig::new()
            .with_host_id(nk_types::HostId(1))
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let dst_cfg = HostConfig::new()
            .with_host_id(nk_types::HostId(2))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let mut src = NetKernelHost::new(src_cfg).unwrap();
        let mut dst = NetKernelHost::new(dst_cfg).unwrap();

        // Pin one connection on the source and push some data.
        let remote = src.add_remote(0x0A01_0100);
        let ls = remote.socket();
        remote.bind(ls, SockAddr::new(0, 7)).unwrap();
        remote.listen(ls, 4).unwrap();
        let guest = src.guest_mut(VmId(1)).unwrap();
        let s = guest.socket().unwrap();
        guest.connect(s, SockAddr::new(0x0A01_0100, 7)).unwrap();
        src.run(20, 100_000);
        let guest = src.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable());
        assert_eq!(guest.send(s, b"pinned bytes").unwrap(), 12);
        src.run(20, 100_000);
        assert_eq!(src.vm_pinned(VmId(1)), 1);

        src.freeze_vm(VmId(1)).unwrap();
        src.run(5, 100_000);
        assert!(src.vm_wire_quiet(VmId(1)));
        let export = src.export_vm_warm(VmId(1)).unwrap();
        assert_eq!(export.conns.len(), 1);
        assert_eq!(export.base.from_nsm, NsmId(1));
        assert_eq!(export.rerouted_ips(), vec![src.nsm_addr(NsmId(1))]);
        // The source is fully out: no guest, no pin, share retires now.
        assert!(!src.has_vm(VmId(1)));
        assert_eq!(src.vm_pinned(VmId(1)), 0);
        assert!(src.retire_nsm_if_drained(NsmId(1)));

        // Install on the destination: same guest socket id, pinned again,
        // alias adopted for the foreign address.
        dst.import_vm_warm(&export, NsmId(1)).unwrap();
        assert_eq!(dst.vm_pinned(VmId(1)), 1);
        let aliases = dst.warm_aliases();
        assert_eq!(aliases, vec![(src.nsm_addr(NsmId(1)), NsmId(1))]);
        let guest = dst.guest_mut(VmId(1)).unwrap();
        assert!(guest.has_socket(s));
        assert!(guest.poll(s).writable());
        // Double warm import is refused like a cold one.
        assert_eq!(
            dst.import_vm_warm(&export, NsmId(1)),
            Err(NkError::AlreadyRegistered)
        );
        // Crashing the adopting NSM tears the alias down with it.
        dst.crash_nsm(NsmId(1)).unwrap();
        assert!(dst.warm_aliases().is_empty());
    }

    /// A warm export refuses mid-close connections *before* touching
    /// anything: the application closed the socket while the Close NQE was
    /// parked by the freeze, so the guest socket is no longer
    /// transplantable — and the VM must keep serving untouched after the
    /// refusal.
    #[test]
    fn warm_export_refuses_a_closing_socket_without_damage() {
        let src_cfg = HostConfig::new()
            .with_host_id(nk_types::HostId(1))
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let mut src = NetKernelHost::new(src_cfg).unwrap();
        let remote = src.add_remote(0x0A01_0100);
        let ls = remote.socket();
        remote.bind(ls, SockAddr::new(0, 7)).unwrap();
        remote.listen(ls, 4).unwrap();
        let guest = src.guest_mut(VmId(1)).unwrap();
        let s = guest.socket().unwrap();
        guest.connect(s, SockAddr::new(0x0A01_0100, 7)).unwrap();
        src.run(20, 100_000);
        assert_eq!(src.vm_pinned(VmId(1)), 1);

        // Freeze, then the app closes: the Close NQE parks in the frozen
        // queue while the guest socket transitions to Closing.
        src.freeze_vm(VmId(1)).unwrap();
        let guest = src.guest_mut(VmId(1)).unwrap();
        guest.close(s).unwrap();
        src.run(3, 100_000);
        assert_eq!(src.export_vm_warm(VmId(1)), Err(NkError::InvalidState));
        // Nothing was torn out: the VM, its pin and its NSM state survive,
        // and after a thaw the close completes normally.
        assert!(src.has_vm(VmId(1)));
        assert_eq!(src.vm_pinned(VmId(1)), 1);
        assert!(src.nsm_serves_vm(NsmId(1), VmId(1)));
        src.thaw_vm(VmId(1));
        src.run(10, 100_000);
        assert_eq!(src.vm_pinned(VmId(1)), 0, "close completes after thaw");
    }

    /// A warm import must not alias a transplanted address over a
    /// *different* alive local NSM's home vNIC address (that would hijack
    /// its traffic): the import refuses and, being atomic, leaves nothing
    /// behind — a retry onto the owning NSM succeeds.
    #[test]
    fn warm_import_refuses_to_hijack_a_local_vnic_address() {
        let src_cfg = HostConfig::new()
            .with_host_id(nk_types::HostId(1))
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        // The destination doubles as the origin-host shape: two NSMs, and
        // the transplanted connection carries NSM 1's home address.
        let dst_cfg = HostConfig::new()
            .with_host_id(nk_types::HostId(1))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(2)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let mut src = NetKernelHost::new(src_cfg).unwrap();
        let mut dst = NetKernelHost::new(dst_cfg).unwrap();
        let remote = src.add_remote(0x0A01_0100);
        let ls = remote.socket();
        remote.bind(ls, SockAddr::new(0, 7)).unwrap();
        remote.listen(ls, 4).unwrap();
        let guest = src.guest_mut(VmId(1)).unwrap();
        let s = guest.socket().unwrap();
        guest.connect(s, SockAddr::new(0x0A01_0100, 7)).unwrap();
        src.run(20, 100_000);
        src.freeze_vm(VmId(1)).unwrap();
        src.run(5, 100_000);
        let export = src.export_vm_warm(VmId(1)).unwrap();
        assert_eq!(export.rerouted_ips(), vec![dst.nsm_addr(NsmId(1))]);

        // Importing onto NSM 2 would hijack NSM 1's address: refused, and
        // atomically so — no VM, no aliases, no config entry left behind.
        assert_eq!(
            dst.import_vm_warm(&export, NsmId(2)),
            Err(NkError::InvalidState)
        );
        assert!(!dst.has_vm(VmId(1)));
        assert!(dst.warm_aliases().is_empty());
        assert!(dst.config().vm(VmId(1)).is_none());
        // Landing on the NSM that owns the address needs no alias at all.
        dst.import_vm_warm(&export, NsmId(1)).unwrap();
        assert!(dst.warm_aliases().is_empty());
        assert_eq!(dst.vm_pinned(VmId(1)), 1);
    }

    /// An aborted warm migration (cancel inside the freeze window) leaves
    /// the source VM serving exactly as before: parked requests thaw and
    /// flow, the pinned connection never resets.
    #[test]
    fn cancel_export_mid_freeze_restores_service() {
        let mut host = one_vm_host(StackKind::Kernel);
        let remote = host.add_remote(REMOTE_IP);
        let ls = remote.socket();
        remote.bind(ls, SockAddr::new(0, 7)).unwrap();
        remote.listen(ls, 4).unwrap();
        let s = guest_connect(&mut host);
        host.run(20, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let (conn, _) = remote.accept(ls).unwrap();

        // Freeze, then let the application submit work: it parks.
        host.freeze_vm(VmId(1)).unwrap();
        assert!(host.vm_frozen(VmId(1)));
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert_eq!(guest.send(s, b"parked in the freeze").unwrap(), 20);
        host.run(10, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        assert_eq!(
            remote.recv(conn, &mut [0u8; 32]),
            Err(NkError::WouldBlock),
            "frozen VM's requests must not reach the wire"
        );

        // Abort the migration: thaw via cancel_export, the parked bytes
        // flow and the connection was never disturbed.
        assert!(host.cancel_export(VmId(1)));
        assert!(!host.vm_frozen(VmId(1)));
        host.run(10, 100_000);
        let remote = host.remote_mut(REMOTE_IP).unwrap();
        let mut buf = [0u8; 32];
        assert_eq!(remote.recv(conn, &mut buf).unwrap(), 20);
        assert_eq!(&buf[..20], b"parked in the freeze");
        assert_eq!(host.vm_pinned(VmId(1)), 1, "no reset, no unpin");
    }

    #[test]
    fn mtcp_nsm_host_builds_and_serves() {
        let mut host = one_vm_host(StackKind::Mtcp);
        let remote = host.add_remote(REMOTE_IP);
        let ls = remote.socket();
        remote.bind(ls, SockAddr::new(0, 80)).unwrap();
        remote.listen(ls, 8).unwrap();
        let guest = host.guest_mut(VmId(1)).unwrap();
        let s = guest.socket().unwrap();
        guest.connect(s, SockAddr::new(REMOTE_IP, 80)).unwrap();
        host.run(20, 100_000);
        let guest = host.guest_mut(VmId(1)).unwrap();
        assert!(guest.poll(s).writable());
    }
}
