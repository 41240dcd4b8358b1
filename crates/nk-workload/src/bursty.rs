//! Bursty multi-tenant scenario driving the operator control plane.
//!
//! Where [`crate::scenario`] exercises the *fault* machinery with a single
//! client, this runner exercises the *control* machinery with several: each
//! tenant VM streams a seeded, byte-verified payload to a remote echo
//! server, but tenants start at different virtual times, so offered load
//! ramps up as they join and back down as they finish. Clients open a fresh
//! connection every few chunks (short-connection behaviour), which is what
//! lets a control-plane migration actually shift load: new connections
//! follow the VM's current NSM mapping while established ones stay pinned.
//!
//! The runner checks the same invariants as the fault scenario — byte
//! integrity of every echoed chunk, NQE conservation per VM, scheduler
//! accounting — and reports the full [`ControlEvent`] log plus the final
//! core allocation so tests can assert that scale-up, rebalancing and
//! scale-down really fired.

use nk_host::sched::SchedStats;
use nk_host::{ControlTelemetry, NetKernelHost};
use nk_types::faults::FaultPlan;
use nk_types::{ControlEvent, HostConfig, NkResult, NsmId, SockAddr, VmId};
use std::collections::BTreeMap;

pub use crate::apps::BurstyClient;
use crate::apps::VerifiedStream;
use crate::scenario::run_single_host;

/// Configuration of one bursty multi-tenant run.
#[derive(Clone, Debug)]
pub struct BurstyConfig {
    /// The host under test (usually with a control policy installed).
    pub host: HostConfig,
    /// Seed for the transferred payloads (each client derives its own).
    pub seed: u64,
    /// Fabric address of the remote echo server.
    pub server_ip: u32,
    /// Port of the remote echo server.
    pub server_port: u16,
    /// The tenants and their activity windows.
    pub clients: Vec<BurstyClient>,
    /// Step budget (livelock guard).
    pub max_steps: usize,
    /// Steps to keep running after every tenant finished, so the control
    /// plane observes the ramp-down and can scale back.
    pub drain_steps: usize,
    /// Virtual time per step in nanoseconds.
    pub dt_ns: u64,
}

impl BurstyConfig {
    /// A run over `host` with defaults matching the fault scenario's pacing.
    pub fn new(host: HostConfig) -> Self {
        BurstyConfig {
            host,
            seed: 1,
            server_ip: 0x0A00_0500,
            server_port: 7,
            clients: Vec::new(),
            max_steps: 40_000,
            drain_steps: 200,
            dt_ns: 100_000,
        }
    }

    /// Add a tenant (builder style).
    pub fn with_client(mut self, client: BurstyClient) -> Self {
        self.clients.push(client);
        self
    }

    /// Set the payload seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Everything a finished bursty run reports. Two runs of the same
/// configuration must produce equal reports (the determinism guarantee).
#[derive(Clone, Debug, PartialEq)]
pub struct BurstyReport {
    /// True when every tenant delivered and verified all its bytes.
    pub completed: bool,
    /// Host steps executed.
    pub steps: u64,
    /// Bytes echoed back and verified, summed over tenants.
    pub bytes_verified: u64,
    /// Socket errors observed across tenants.
    pub errors_observed: u64,
    /// Reconnects forced by errors (scheduled short-connection reopens are
    /// not counted).
    pub reconnects: u64,
    /// The complete control-plane decision log.
    pub control: Vec<ControlEvent>,
    /// Per-epoch control observability: utilisation samples and action
    /// counts as time series (empty without a control plane).
    pub telemetry: ControlTelemetry,
    /// Core allocation per NSM at the end of the run.
    pub final_nsm_cores: BTreeMap<NsmId, usize>,
    /// Cores allocated to CoreEngine at the end of the run.
    pub final_engine_cores: usize,
    /// NSM serving each tenant's new connections at the end of the run.
    pub final_mapping: BTreeMap<VmId, NsmId>,
    /// CoreEngine statistics.
    pub engine: nk_engine::EngineStats,
    /// Scheduler statistics.
    pub sched: SchedStats,
}

/// A runnable bursty scenario (see the module docs).
pub struct BurstyScenario {
    cfg: BurstyConfig,
}

impl BurstyScenario {
    /// Build a scenario from its configuration.
    pub fn new(cfg: BurstyConfig) -> Self {
        BurstyScenario { cfg }
    }

    /// Run to completion (or the step budget) and report.
    ///
    /// Panics with a descriptive message when an invariant is violated —
    /// byte corruption, NQE loss, scheduler accounting drift.
    pub fn run(&self) -> NkResult<BurstyReport> {
        let cfg = &self.cfg;
        let server = SockAddr::new(cfg.server_ip, cfg.server_port);
        let (mut host, clients, steps) = run_single_host(
            &cfg.host,
            &FaultPlan::new(),
            server,
            VerifiedStream::for_tenants(&cfg.clients, cfg.seed, server),
            cfg.max_steps,
            cfg.drain_steps,
            cfg.dt_ns,
        )?;
        // Conservation per tenant at quiescence.
        for c in &clients {
            Self::check_conservation(&mut host, c.spec().vm);
        }

        let final_nsm_cores = cfg
            .host
            .nsms
            .iter()
            .filter_map(|n| host.nsm_cores(n.id).map(|c| (n.id, c)))
            .collect();
        let final_mapping = cfg
            .host
            .vms
            .iter()
            .filter_map(|v| host.nsm_of(v.id).map(|n| (v.id, n)))
            .collect();
        Ok(BurstyReport {
            completed: clients.iter().all(VerifiedStream::done),
            steps,
            bytes_verified: clients.iter().map(VerifiedStream::bytes_verified).sum(),
            errors_observed: clients.iter().map(|c| c.errors_observed).sum(),
            reconnects: clients.iter().map(|c| c.reconnects).sum(),
            control: host.control_events().to_vec(),
            telemetry: host.control_telemetry().clone(),
            final_nsm_cores,
            final_engine_cores: host.engine_cores(),
            final_mapping,
            engine: host.engine_stats(),
            sched: host.sched_stats(),
        })
    }

    /// NQE conservation over CoreEngine at quiescence, per tenant.
    fn check_conservation(host: &mut NetKernelHost, vm: VmId) {
        let guest = host.guest_mut(vm).expect("client VM exists").stats();
        let stats = host.vm_switch_stats(vm).expect("client VM registered");
        let stalled = host.stalled_nqes() as u64;
        assert!(
            guest.nqes_sent <= stats.nqes_forwarded + stats.dropped + stalled,
            "{vm:?}: NQEs lost in the switch: sent {}, forwarded {}, dropped {}, stalled {}",
            guest.nqes_sent,
            stats.nqes_forwarded,
            stats.dropped,
            stalled,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_types::{NsmConfig, VmConfig, VmToNsmPolicy};

    /// Without a control policy the bursty runner is just a multi-tenant
    /// transfer: everything completes, byte-verified, no control events.
    #[test]
    fn multi_tenant_transfer_completes_without_control() {
        let host = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_vm(VmConfig::new(VmId(2)))
            .with_nsm(NsmConfig::kernel(NsmId(1)).with_vcpus(2))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let report = BurstyScenario::new(
            BurstyConfig::new(host)
                .with_client(BurstyClient::new(VmId(1), 0).with_total_bytes(16 * 1024))
                .with_client(BurstyClient::new(VmId(2), 1_000_000).with_total_bytes(16 * 1024)),
        )
        .run()
        .unwrap();
        assert!(report.completed, "{report:?}");
        assert_eq!(report.bytes_verified, 32 * 1024);
        assert!(report.control.is_empty());
        assert_eq!(report.errors_observed, 0);
    }

    #[test]
    fn clients_idle_before_their_start_time() {
        let host = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        let late_start = 3_000_000;
        let report = BurstyScenario::new(
            BurstyConfig::new(host)
                .with_client(BurstyClient::new(VmId(1), late_start).with_total_bytes(8 * 1024)),
        )
        .run()
        .unwrap();
        assert!(report.completed);
        // The transfer could not have finished before it started.
        assert!(report.steps > late_start / 100_000);
    }

    /// Conformance: three ramping tenants under a control policy, pinned as
    /// the tuple a drifted socket-call sequence would change. Values
    /// recorded at the commit before the traffic drivers were unified.
    #[test]
    fn controlled_ramp_matches_its_recorded_run() {
        use nk_types::ControlPolicy;
        let policy = ControlPolicy::new()
            .with_epoch_ns(1_000_000)
            .with_window(2)
            .with_watermarks(0.10, 0.60)
            .with_core_bounds(1, 2)
            .with_cooldown(1)
            .with_rebalance(0.50, 1)
            .with_pool_clock_hz(1_000_000);
        let mut host = HostConfig::new()
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(2)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)))
            .with_control(policy);
        let mut clients = Vec::new();
        for vm in 1..=3u8 {
            host = host.with_vm(VmConfig::new(VmId(vm)));
            let start_ns = (vm as u64 - 1) * 1_000_000;
            clients.push(BurstyClient::new(VmId(vm), start_ns).with_total_bytes(96 * 1024));
        }
        let mut cfg = BurstyConfig::new(host).with_seed(11);
        cfg.clients = clients;
        let report = BurstyScenario::new(cfg).run().unwrap();
        assert!(report.completed, "{report:?}");
        assert_eq!(
            (
                report.steps,
                report.bytes_verified,
                report.reconnects,
                report.control.len()
            ),
            (376, 294912, 0, 9)
        );
    }
}
