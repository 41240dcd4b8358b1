//! Configuration for hosts, tenant VMs and Network Stack Modules.
//!
//! A [`HostConfig`] describes everything the operator controls: which VMs run
//! on the host, which NSMs are provisioned, how VMs map onto NSMs, and what
//! isolation policy applies. A [`LinkConfig`] describes one fabric link. The
//! same configuration drives both the threaded and the simulated execution
//! modes.

use crate::constants::{
    DEFAULT_BATCH_SIZE, DEFAULT_HUGEPAGE_COUNT, DEFAULT_POLL_ROUNDS, DEFAULT_QUEUE_CAPACITY,
    LINE_RATE_GBPS,
};
use crate::control::ControlPolicy;
use crate::error::{NkError, NkResult};
use crate::ids::{HostId, NsmId, VmId};

/// Most vCPUs a VM or NSM may have: one queue set per vCPU (§4.3), and
/// [`crate::ids::QueueSetId`] is a `u8`.
const MAX_VCPUS: usize = u8::MAX as usize + 1;

/// Most hugepages per VM–NSM pair: 1024 (2 GiB), eight times the paper's
/// 128 (§5). Each pair's region is allocated whole when it attaches, so a
/// larger count is a typo, and near `usize::MAX` its byte size overflows.
const MAX_HUGEPAGES_PER_PAIR: usize = 1024;

/// Most NQEs per queue: 65 536, sixteen times the default. A queue set
/// allocates its four rings in full when it attaches, one set per vCPU (up
/// to 256), so the count is multiplied many times over; near `usize::MAX`
/// the ring allocation overflows.
const MAX_QUEUE_CAPACITY: usize = 1 << 16;

/// Longest one-way link latency, uplink or injected fault: 1 s, four orders
/// of magnitude past a rack hop. The fabric schedules a frame at
/// `now + latency_us * 1000` ns, which overflows near `u64::MAX`.
const MAX_LINK_LATENCY_US: u64 = 1_000_000;

/// A configured rate must be a finite, positive number of Gbps (`NaN <= 0.0`
/// is false, so a plain sign test lets NaN and infinity through).
fn valid_rate_gbps(gbps: f64) -> bool {
    gbps.is_finite() && gbps > 0.0
}

/// Which network stack implementation an NSM runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StackKind {
    /// A monolithic kernel-style TCP/IP stack (the paper's "kernel stack NSM",
    /// modelled on Linux 4.9 behaviour: interrupt-driven RX, per-packet
    /// processing in softirq context).
    Kernel,
    /// A userspace, batched, per-core-partitioned stack in the style of mTCP
    /// over DPDK: lower per-operation cost, run-to-completion, poll-mode RX.
    Mtcp,
    /// The shared-memory fast path for colocated VMs of the same tenant
    /// (use case 4, §6.4): payload is copied hugepage-to-hugepage and TCP
    /// processing is bypassed entirely.
    SharedMem,
}

/// Which congestion-control algorithm a stack uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CcKind {
    /// TCP NewReno-style AIMD.
    Reno,
    /// CUBIC (the Linux default the paper's Baseline runs).
    #[default]
    Cubic,
    /// One shared congestion window per VM, split equally across that VM's
    /// active flows (Seawall-style VM-level fairness, use case 2, §6.2). On
    /// an NSM every connection of a VM joins that VM's window, whichever way
    /// it entered the stack; a bare stack is one VM's own, so its
    /// connections share one window per stack.
    VmShared,
}

/// Configuration of one tenant VM.
#[derive(Clone, Debug, PartialEq)]
pub struct VmConfig {
    /// VM identifier, unique per host.
    pub id: VmId,
    /// Number of vCPUs; the NK device gets one queue set per vCPU (§4.3).
    pub vcpus: usize,
    /// Tenant identifier; VMs of the same tenant may use the shared-memory
    /// NSM when colocated (§6.4).
    pub tenant: u32,
    /// Optional egress bandwidth cap in Gbps enforced by CoreEngine (§7.6);
    /// the host's isolation must be [`IsolationPolicy::RateLimited`].
    pub rate_limit_gbps: Option<f64>,
}

impl VmConfig {
    /// A single-vCPU VM with no rate limit.
    pub fn new(id: VmId) -> Self {
        VmConfig {
            id,
            vcpus: 1,
            tenant: 0,
            rate_limit_gbps: None,
        }
    }

    /// Set the number of vCPUs (builder style).
    pub fn with_vcpus(mut self, vcpus: usize) -> Self {
        self.vcpus = vcpus;
        self
    }

    /// Set the tenant id (builder style).
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }
}

/// Configuration of one Network Stack Module.
///
/// Fair bandwidth sharing (use case 2, §6.2) is one setting: an NSM whose
/// `cc` is [`CcKind::VmShared`] gives each VM it serves one congestion
/// window, shared by all of that VM's connections and by no other VM's
/// (`NsmConfig::kernel(id).with_cc(CcKind::VmShared)`).
#[derive(Clone, Debug, PartialEq)]
pub struct NsmConfig {
    /// NSM identifier, unique per host.
    pub id: NsmId,
    /// Number of vCPUs dedicated to the NSM.
    pub vcpus: usize,
    /// Stack implementation the NSM runs.
    pub stack: StackKind,
    /// Congestion control used by that stack; `VmShared` is per VM.
    pub cc: CcKind,
    /// Rate of the virtual function / vNIC attached to the NSM, in Gbps.
    pub nic_rate_gbps: f64,
}

impl NsmConfig {
    /// A single-vCPU kernel-stack NSM attached to a full-rate vNIC.
    pub fn kernel(id: NsmId) -> Self {
        NsmConfig {
            id,
            vcpus: 1,
            stack: StackKind::Kernel,
            cc: CcKind::Cubic,
            nic_rate_gbps: LINE_RATE_GBPS,
        }
    }

    /// A single-vCPU mTCP-style NSM attached to a full-rate vNIC.
    pub fn mtcp(id: NsmId) -> Self {
        NsmConfig {
            stack: StackKind::Mtcp,
            ..NsmConfig::kernel(id)
        }
    }

    /// A shared-memory NSM for colocated VMs of the same tenant.
    pub fn shared_mem(id: NsmId) -> Self {
        NsmConfig {
            stack: StackKind::SharedMem,
            ..NsmConfig::kernel(id)
        }
    }

    /// Set the number of vCPUs (builder style).
    pub fn with_vcpus(mut self, vcpus: usize) -> Self {
        self.vcpus = vcpus;
        self
    }

    /// Set the congestion control algorithm (builder style).
    pub fn with_cc(mut self, cc: CcKind) -> Self {
        self.cc = cc;
        self
    }
}

/// The shape of one fabric link: a vNIC's, an uplink's, or the one a
/// [`crate::FaultAction::DegradeLink`] installs mid-flight. The fabric's
/// links apply it; this crate describes it so configurations and fault
/// plans can name it without depending on the fabric.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkConfig {
    /// Line rate in Gbps; `None` means unconstrained.
    pub rate_gbps: Option<f64>,
    /// One-way propagation delay in microseconds.
    pub latency_us: u64,
    /// Probability of dropping a frame.
    pub loss: f64,
    /// Probability of delaying a frame by a fixed extra jitter, so it
    /// arrives after frames sent later.
    pub reorder: f64,
}

impl LinkConfig {
    /// An ideal link: no rate cap, no delay, no loss, no reordering.
    pub fn ideal() -> Self {
        Self::default()
    }

    /// Cap the rate in Gbps (builder style).
    pub fn with_rate_gbps(mut self, gbps: f64) -> Self {
        self.rate_gbps = Some(gbps);
        self
    }

    /// Set the one-way latency in microseconds (builder style).
    pub fn with_latency_us(mut self, us: u64) -> Self {
        self.latency_us = us;
        self
    }

    /// Drop frames with probability `loss` (builder style).
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Reorder frames with probability `reorder` (builder style).
    pub fn with_reorder(mut self, reorder: f64) -> Self {
        self.reorder = reorder;
        self
    }

    /// Check the parameters: probabilities in `0..=1`, a finite positive
    /// rate cap, and a latency of at most one second.
    pub fn validate(&self) -> NkResult<()> {
        if !(0.0..=1.0).contains(&self.loss)
            || !(0.0..=1.0).contains(&self.reorder)
            || self.rate_gbps.is_some_and(|g| !valid_rate_gbps(g))
            || self.latency_us > MAX_LINK_LATENCY_US
        {
            return Err(NkError::BadConfig);
        }
        Ok(())
    }
}

/// How CoreEngine arbitrates between VMs sharing NSMs (§4.4, §7.6).
#[derive(Clone, Debug, PartialEq, Default)]
pub enum IsolationPolicy {
    /// Plain round-robin polling over the per-VM queue sets: basic fair
    /// sharing of CoreEngine and NSM attention.
    #[default]
    RoundRobin,
    /// Round-robin polling plus per-VM token-bucket rate limiting of egress
    /// bytes (the payload of `Send`s), honouring each VM's
    /// `rate_limit_gbps`. A send larger than the bucket's burst passes a
    /// full bucket and leaves it in debt.
    RateLimited,
    /// Round-robin polling plus a cap on NQE operations per second per VM.
    OpsLimited {
        /// Maximum NQEs per second each VM may issue (at least 1).
        max_ops_per_sec: u64,
    },
}

/// How VMs are assigned to NSMs (§4.3 footnote: offline by the user or
/// dynamically by CoreEngine).
#[derive(Clone, Debug, PartialEq)]
pub enum VmToNsmPolicy {
    /// Explicit static assignment.
    Static(Vec<(VmId, NsmId)>),
    /// Every VM is served by the (single) NSM with the given id.
    All(NsmId),
    /// CoreEngine spreads VMs across NSMs with the fewest attached VMs first.
    LeastLoaded,
}

/// Full description of one NetKernel host.
#[derive(Clone, Debug, PartialEq)]
pub struct HostConfig {
    /// Identity of the host in the cluster address scheme: every NSM vNIC
    /// lives in the `10.<host>.0.0/16` block. Single-host setups keep the
    /// default of host 0 and see the pre-cluster addresses unchanged.
    pub host_id: HostId,
    /// Tenant VMs provisioned on the host.
    pub vms: Vec<VmConfig>,
    /// Network stack modules provisioned on the host.
    pub nsms: Vec<NsmConfig>,
    /// VM → NSM assignment policy.
    pub mapping: VmToNsmPolicy,
    /// Isolation policy applied by CoreEngine.
    pub isolation: IsolationPolicy,
    /// Number of 2 MB hugepages shared between each VM–NSM pair (1 to 1024).
    pub hugepages_per_pair: usize,
    /// NQE batch size used for queue polling and switching.
    pub batch_size: usize,
    /// Capacity of each lockless queue, in NQEs (1 to 65 536).
    pub queue_capacity: usize,
    /// Upper bound on poll rounds per host step. Each round polls every
    /// datapath component once; the step ends early as soon as a full round
    /// reports no work.
    pub max_poll_rounds: usize,
    /// Operator control-plane policy. `None` leaves the allocation static
    /// (no autoscaling, no rebalancing).
    pub control: Option<ControlPolicy>,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            host_id: HostId(0),
            vms: Vec::new(),
            nsms: Vec::new(),
            mapping: VmToNsmPolicy::LeastLoaded,
            isolation: IsolationPolicy::RoundRobin,
            hugepages_per_pair: DEFAULT_HUGEPAGE_COUNT,
            batch_size: DEFAULT_BATCH_SIZE,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            max_poll_rounds: DEFAULT_POLL_ROUNDS,
            control: None,
        }
    }
}

impl HostConfig {
    /// Start from an empty host with default policies.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the host's cluster identity (builder style).
    pub fn with_host_id(mut self, host: HostId) -> Self {
        self.host_id = host;
        self
    }

    /// Add a VM (builder style).
    pub fn with_vm(mut self, vm: VmConfig) -> Self {
        self.vms.push(vm);
        self
    }

    /// Add an NSM (builder style).
    pub fn with_nsm(mut self, nsm: NsmConfig) -> Self {
        self.nsms.push(nsm);
        self
    }

    /// Set the VM → NSM mapping policy (builder style).
    pub fn with_mapping(mut self, mapping: VmToNsmPolicy) -> Self {
        self.mapping = mapping;
        self
    }

    /// Enable the operator control plane with `policy` (builder style).
    pub fn with_control(mut self, policy: ControlPolicy) -> Self {
        self.control = Some(policy);
        self
    }

    /// Look up a VM's configuration.
    pub fn vm(&self, id: VmId) -> Option<&VmConfig> {
        self.vms.iter().find(|v| v.id == id)
    }

    /// Look up an NSM's configuration.
    pub fn nsm(&self, id: NsmId) -> Option<&NsmConfig> {
        self.nsms.iter().find(|n| n.id == id)
    }

    /// Resolve the NSM that serves `vm` under the configured mapping policy.
    ///
    /// For [`VmToNsmPolicy::LeastLoaded`] the assignment is deterministic:
    /// VMs are considered in configuration order and assigned to the NSM with
    /// the fewest VMs assigned so far (ties broken by NSM id).
    pub fn nsm_for_vm(&self, vm: VmId) -> NkResult<NsmId> {
        if self.nsms.is_empty() {
            return Err(NkError::NoNsm);
        }
        match &self.mapping {
            VmToNsmPolicy::All(id) => {
                if self.nsm(*id).is_some() {
                    Ok(*id)
                } else {
                    Err(NkError::NotFound)
                }
            }
            VmToNsmPolicy::Static(map) => map
                .iter()
                .find(|(v, _)| *v == vm)
                .map(|(_, n)| *n)
                .ok_or(NkError::NoNsm),
            VmToNsmPolicy::LeastLoaded => {
                let mut load: Vec<(NsmId, usize)> =
                    self.nsms.iter().map(|n| (n.id, 0usize)).collect();
                load.sort_by_key(|(id, _)| *id);
                for v in &self.vms {
                    let slot = load
                        .iter_mut()
                        .min_by_key(|(id, c)| (*c, *id))
                        .expect("nsms non-empty");
                    if v.id == vm {
                        return Ok(slot.0);
                    }
                    slot.1 += 1;
                }
                // The VM is not part of the configuration.
                Err(NkError::NotFound)
            }
        }
    }

    /// Validate internal consistency (ids unique, counts non-zero and within
    /// the queue-set id space, rates finite and positive, a VM rate only
    /// under [`IsolationPolicy::RateLimited`], static mappings referencing
    /// existing entities).
    pub fn validate(&self) -> NkResult<()> {
        let mut vm_ids = std::collections::BTreeSet::new();
        for v in &self.vms {
            if !(1..=MAX_VCPUS).contains(&v.vcpus) {
                return Err(NkError::BadConfig);
            }
            // CoreEngine enforces a rate only under `RateLimited`: under any
            // other policy it would be ignored without a word.
            let enforced = self.isolation == IsolationPolicy::RateLimited;
            if v.rate_limit_gbps
                .is_some_and(|g| !valid_rate_gbps(g) || !enforced)
            {
                return Err(NkError::BadConfig);
            }
            if !vm_ids.insert(v.id) {
                return Err(NkError::BadConfig);
            }
        }
        let mut nsm_ids = std::collections::BTreeSet::new();
        for n in &self.nsms {
            if !(1..=MAX_VCPUS).contains(&n.vcpus) || !valid_rate_gbps(n.nic_rate_gbps) {
                return Err(NkError::BadConfig);
            }
            if !nsm_ids.insert(n.id) {
                return Err(NkError::BadConfig);
            }
        }
        if self.batch_size == 0
            || !(1..=MAX_QUEUE_CAPACITY).contains(&self.queue_capacity)
            || !(1..=MAX_HUGEPAGES_PER_PAIR).contains(&self.hugepages_per_pair)
        {
            return Err(NkError::BadConfig);
        }
        if self.max_poll_rounds == 0 {
            return Err(NkError::BadConfig);
        }
        // A zero rate refills no tokens: each VM's second NQE would stall forever.
        if let IsolationPolicy::OpsLimited { max_ops_per_sec: 0 } = self.isolation {
            return Err(NkError::BadConfig);
        }
        if let VmToNsmPolicy::Static(map) = &self.mapping {
            for (v, n) in map {
                if !vm_ids.contains(v) || !nsm_ids.contains(n) {
                    return Err(NkError::BadConfig);
                }
            }
        }
        if let VmToNsmPolicy::All(n) = &self.mapping {
            if !self.nsms.is_empty() && !nsm_ids.contains(n) {
                return Err(NkError::BadConfig);
            }
        }
        if let Some(control) = &self.control {
            control.validate()?;
            for (a, b) in &control.anti_affinity {
                if !vm_ids.contains(a) || !vm_ids.contains(b) {
                    return Err(NkError::BadConfig);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_vm_one_nsm() -> HostConfig {
        HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_vm(VmConfig::new(VmId(2)).with_vcpus(2))
            .with_nsm(NsmConfig::kernel(NsmId(1)).with_vcpus(2))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)))
    }

    #[test]
    fn default_host_is_valid() {
        assert!(HostConfig::default().validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let cfg = two_vm_one_nsm();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.vms.len(), 2);
        assert_eq!(cfg.nsm(NsmId(1)).unwrap().vcpus, 2);
        assert_eq!(cfg.vm(VmId(2)).unwrap().vcpus, 2);
    }

    #[test]
    fn mapping_all_and_static() {
        let cfg = two_vm_one_nsm();
        assert_eq!(cfg.nsm_for_vm(VmId(1)).unwrap(), NsmId(1));

        let cfg = cfg.with_mapping(VmToNsmPolicy::Static(vec![(VmId(1), NsmId(1))]));
        assert_eq!(cfg.nsm_for_vm(VmId(1)).unwrap(), NsmId(1));
        assert_eq!(cfg.nsm_for_vm(VmId(2)), Err(NkError::NoNsm));
    }

    #[test]
    fn least_loaded_mapping_spreads_vms() {
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_vm(VmConfig::new(VmId(2)))
            .with_vm(VmConfig::new(VmId(3)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(2)))
            .with_mapping(VmToNsmPolicy::LeastLoaded);
        assert_eq!(cfg.nsm_for_vm(VmId(1)).unwrap(), NsmId(1));
        assert_eq!(cfg.nsm_for_vm(VmId(2)).unwrap(), NsmId(2));
        assert_eq!(cfg.nsm_for_vm(VmId(3)).unwrap(), NsmId(1));
        assert_eq!(cfg.nsm_for_vm(VmId(9)), Err(NkError::NotFound));
    }

    #[test]
    fn mapping_without_nsm_is_an_error() {
        let cfg = HostConfig::new().with_vm(VmConfig::new(VmId(1)));
        assert_eq!(cfg.nsm_for_vm(VmId(1)), Err(NkError::NoNsm));
    }

    #[test]
    fn validation_catches_duplicates_and_zeroes() {
        let dup = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_vm(VmConfig::new(VmId(1)));
        assert_eq!(dup.validate(), Err(NkError::BadConfig));

        let zero = HostConfig::new().with_vm(VmConfig::new(VmId(1)).with_vcpus(0));
        assert_eq!(zero.validate(), Err(NkError::BadConfig));

        let bad_static = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::Static(vec![(VmId(5), NsmId(1))]));
        assert_eq!(bad_static.validate(), Err(NkError::BadConfig));
    }

    #[test]
    fn validation_bounds_counts_and_rates() {
        type Edit = fn(&mut HostConfig);
        // One queue set per vCPU and `QueueSetId` is a `u8`: 256 is the last
        // count with an id for each (100 000 used to reach the allocator).
        // Oversized memory counts used to pass and then overflow in the
        // allocation at attach.
        fn rate(c: &mut HostConfig, gbps: f64) {
            c.isolation = IsolationPolicy::RateLimited;
            c.vms[0].rate_limit_gbps = Some(gbps);
        }
        let rows: [(Edit, bool); 20] = [
            (|c| c.vms[0].vcpus = 256, true),
            (|c| c.vms[0].vcpus = 257, false),
            (|c| c.vms[0].vcpus = 100_000, false),
            (|c| c.nsms[0].vcpus = 257, false),
            (|c| c.nsms[0].nic_rate_gbps = f64::NAN, false),
            (|c| c.nsms[0].nic_rate_gbps = f64::INFINITY, false),
            (|c| rate(c, 2.5), true),
            // A rate no policy enforces is a typo, not a silent no-op.
            (|c| c.vms[0].rate_limit_gbps = Some(2.5), false),
            (|c| rate(c, f64::NAN), false),
            (|c| rate(c, f64::INFINITY), false),
            (|c| rate(c, 0.0), false),
            (|c| rate(c, -1.0), false),
            (|c| c.hugepages_per_pair = 1024, true),
            (|c| c.hugepages_per_pair = 1025, false),
            (|c| c.hugepages_per_pair = usize::MAX, false),
            (|c| c.queue_capacity = 1 << 16, true),
            (|c| c.queue_capacity = (1 << 16) + 1, false),
            (|c| c.queue_capacity = usize::MAX, false),
            (
                |c| c.isolation = IsolationPolicy::OpsLimited { max_ops_per_sec: 1 },
                true,
            ),
            (
                |c| c.isolation = IsolationPolicy::OpsLimited { max_ops_per_sec: 0 },
                false,
            ),
        ];
        for (row, (edit, ok)) in rows.iter().enumerate() {
            let mut cfg = two_vm_one_nsm();
            edit(&mut cfg);
            let want = if *ok { Ok(()) } else { Err(NkError::BadConfig) };
            assert_eq!(cfg.validate(), want, "row {row}");
        }
    }

    #[test]
    fn nsm_constructors_set_stack_kind() {
        assert_eq!(NsmConfig::kernel(NsmId(1)).stack, StackKind::Kernel);
        assert_eq!(NsmConfig::mtcp(NsmId(1)).stack, StackKind::Mtcp);
        assert_eq!(NsmConfig::shared_mem(NsmId(1)).stack, StackKind::SharedMem);
    }
}
