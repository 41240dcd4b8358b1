//! Scenario runner: applications + fault plans + invariant checks.
//!
//! A [`Scenario`] composes a [`NetKernelHost`], a guest-side reliable
//! transfer client, a remote echo server and a [`FaultPlan`] into one
//! deterministic execution: the client streams a seeded payload to the
//! server chunk by chunk, verifying every echoed byte, and transparently
//! reconnects whenever the infrastructure fails underneath it (NSM crash,
//! live migration, link degradation). Because the payload, the fault
//! schedule and the whole datapath derive from explicit seeds, a scenario
//! replays bit-for-bit — the property the seeded fault tests and the
//! determinism test build on.
//!
//! Invariants checked by every run:
//!
//! * **No NQE lost** — every request NQE the guest submitted was forwarded
//!   to an NSM, answered with an error, or is still queued for retry
//!   (conservation over the CoreEngine switch).
//! * **Scheduler accounting** — every step ends in quiescence or at the
//!   round bound, never in between.
//! * **Byte integrity** — every byte the server echoes must match the
//!   seeded payload at the connection's position; completion means all
//!   bytes were delivered and verified despite crashes mid-transfer.

use crate::apps::{echo_all, BurstyClient, VerifiedStream};
use nk_fabric::rng::SplitMix64;
use nk_host::faults::FaultStats;
use nk_host::sched::SchedStats;
use nk_host::NetKernelHost;
use nk_netstack::stack::StackStats;
use nk_types::faults::{FaultAction, FaultPlan, LinkFault};
use nk_types::{HostConfig, NkError, NkResult, SockAddr, SocketId, VmId};

/// Configuration of one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// The host under test.
    pub host: HostConfig,
    /// Timed infrastructure faults applied during the run.
    pub faults: FaultPlan,
    /// Seed for the transferred payload.
    pub seed: u64,
    /// The VM running the client application.
    pub client_vm: VmId,
    /// Fabric address of the remote echo server.
    pub server_ip: u32,
    /// Port of the remote echo server.
    pub server_port: u16,
    /// Bytes the client must deliver (and see echoed) end to end.
    pub total_bytes: usize,
    /// Stop-and-wait chunk size.
    pub chunk: usize,
    /// Step budget: the run fails if the transfer has not completed by then
    /// (livelock guard; each step is itself bounded by `max_poll_rounds`).
    pub max_steps: usize,
    /// Virtual time per step in nanoseconds.
    pub dt_ns: u64,
}

impl ScenarioConfig {
    /// A scenario over `host` with a 64 KiB transfer and defaults sized so
    /// the transfer spans many steps (room for faults to land mid-flight).
    pub fn new(host: HostConfig) -> Self {
        ScenarioConfig {
            host,
            faults: FaultPlan::new(),
            seed: 1,
            client_vm: VmId(1),
            server_ip: 0x0A00_0500,
            server_port: 7,
            total_bytes: 64 * 1024,
            chunk: 2048,
            max_steps: 20_000,
            dt_ns: 100_000,
        }
    }

    /// Install a fault plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Set the payload seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the transfer size (builder style).
    pub fn with_total_bytes(mut self, bytes: usize) -> Self {
        self.total_bytes = bytes;
        self
    }
}

/// Everything a finished scenario reports. Two runs of the same
/// configuration must produce equal reports (the determinism guarantee).
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// True when all bytes were delivered, echoed and verified.
    pub completed: bool,
    /// Host steps executed.
    pub steps: u64,
    /// Bytes echoed back and verified against the seeded payload.
    pub bytes_verified: u64,
    /// Socket errors the client observed (resets, refused NSMs).
    pub errors_observed: u64,
    /// Times the client had to reconnect through a replacement NSM.
    pub reconnects: u64,
    /// Guest-side NQE statistics.
    pub guest: nk_guest::GuestStats,
    /// CoreEngine statistics.
    pub engine: nk_engine::EngineStats,
    /// Per-VM switching statistics of the client VM.
    pub vm: nk_engine::VmSwitchStats,
    /// Scheduler statistics.
    pub sched: SchedStats,
    /// Fault-injection statistics.
    pub faults: FaultStats,
    /// The remote echo server's stack statistics.
    pub server_stack: StackStats,
}

/// Generate the seeded payload a scenario transfers.
pub fn seeded_payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Generate a recoverable random fault schedule from a seed.
///
/// Incidents are drawn from: crash-the-serving-NSM (with an immediate live
/// migration to a standby and a later restart of the crashed one), plain
/// live migration, and link degradation followed by restoration. The
/// generator tracks which NSM serves the VM and spaces incidents so every
/// crashed NSM is restarted before the next incident, keeping the plan valid
/// and the scenario completable. `horizon_ns` bounds when incidents start.
pub fn random_fault_plan(
    seed: u64,
    cfg: &HostConfig,
    vm: VmId,
    horizon_ns: u64,
) -> NkResult<FaultPlan> {
    let nsm_ids: Vec<_> = cfg.nsms.iter().map(|n| n.id).collect();
    if nsm_ids.len() < 2 {
        return Err(NkError::BadConfig);
    }
    let mut rng = SplitMix64::new(seed ^ 0xFA17_FA17);
    let mut current = cfg.nsm_for_vm(vm)?;
    let mut plan = FaultPlan::new();
    let slot = (horizon_ns / 8).max(1);
    let mut t = slot + rng.next_below(slot);
    while t < horizon_ns {
        match rng.next_below(3) {
            0 => {
                // Degrade the serving NSM's link, restore it half a slot on.
                let link = LinkFault::default()
                    .with_loss(rng.next_f64() * 0.02)
                    .with_latency_us(rng.next_below(150))
                    .with_reorder(rng.next_f64() * 0.05);
                plan = plan
                    .at(t, FaultAction::DegradeLink { nsm: current, link })
                    .at(
                        t + slot / 2,
                        FaultAction::DegradeLink {
                            nsm: current,
                            link: LinkFault::healthy(),
                        },
                    );
            }
            1 => {
                // Crash the serving NSM, migrate the VM to a standby in the
                // same instant, restart the crashed NSM half a slot later —
                // well before the next incident can touch it again.
                let standby = nsm_ids[(nsm_ids.iter().position(|n| *n == current).unwrap()
                    + 1
                    + rng.next_below(nsm_ids.len() as u64 - 1) as usize)
                    % nsm_ids.len()];
                plan = plan
                    .at(t, FaultAction::CrashNsm(current))
                    .at(t, FaultAction::MigrateVm { vm, to: standby })
                    .at(t + slot / 2, FaultAction::RestartNsm(current));
                current = standby;
            }
            _ => {
                // Plain live migration, no failure involved.
                let target = nsm_ids[rng.next_below(nsm_ids.len() as u64) as usize];
                if target != current {
                    plan = plan.at(t, FaultAction::MigrateVm { vm, to: target });
                    current = target;
                }
            }
        }
        t += slot + rng.next_below(slot);
    }
    plan.validate(cfg)?;
    Ok(plan)
}

/// A runnable scenario (see the module docs).
pub struct Scenario {
    cfg: ScenarioConfig,
}

impl Scenario {
    /// Build a scenario from its configuration.
    pub fn new(cfg: ScenarioConfig) -> Self {
        Scenario { cfg }
    }

    /// Run to completion (or the step budget) and report.
    ///
    /// Panics with a descriptive message when an invariant is violated —
    /// byte corruption, NQE loss, scheduler accounting drift.
    pub fn run(&self) -> NkResult<ScenarioReport> {
        let cfg = &self.cfg;
        // The one-client case of the shared driver: a single connection for
        // the whole transfer, reopened only when the infrastructure fails.
        let spec = BurstyClient {
            total_bytes: cfg.total_bytes,
            chunk: cfg.chunk,
            ..BurstyClient::new(cfg.client_vm, 0).long_lived()
        };
        let server = SockAddr::new(cfg.server_ip, cfg.server_port);
        let client = VerifiedStream::new(spec, cfg.seed, server);
        let (mut host, clients, steps) = run_single_host(
            &cfg.host,
            &cfg.faults,
            server,
            vec![client],
            cfg.max_steps,
            0,
            cfg.dt_ns,
        )?;
        let client = &clients[0];
        let guest = host
            .guest_mut(cfg.client_vm)
            .ok_or(NkError::NotFound)?
            .stats();
        let vm = host
            .vm_switch_stats(cfg.client_vm)
            .ok_or(NkError::NotFound)?;
        // NQE conservation over CoreEngine at quiescence: everything the
        // guest submitted was forwarded, answered with an error, or is
        // still parked for retry. Nothing vanishes.
        let stalled = host.stalled_nqes() as u64;
        assert_eq!(
            guest.nqes_sent,
            vm.nqes_forwarded + vm.dropped + stalled,
            "NQEs lost in the switch: {guest:?}, {vm:?}, stalled {stalled}",
        );
        let server_stack = host
            .remote_mut(cfg.server_ip)
            .ok_or(NkError::NotFound)?
            .stats();
        Ok(ScenarioReport {
            completed: client.done(),
            steps,
            bytes_verified: client.bytes_verified(),
            errors_observed: client.errors_observed,
            reconnects: client.reconnects,
            guest,
            engine: host.engine_stats(),
            vm,
            sched: host.sched_stats(),
            faults: host.fault_stats(),
            server_stack,
        })
    }
}

/// The single-host run loop both scenario runners share: per step, every
/// started, unfinished stream polls its guest, the host steps, the remote
/// server at `server` echoes — until `drain_steps` steps after the last
/// stream finished (or `max_steps`). The streams are then closed and the
/// host settles, so conservation can be checked at quiescence. Returns the
/// settled host, the streams and the steps the loop ran.
pub(crate) fn run_single_host(
    host_cfg: &HostConfig,
    faults: &FaultPlan,
    server: SockAddr,
    mut streams: Vec<VerifiedStream>,
    max_steps: usize,
    drain_steps: usize,
    dt_ns: u64,
) -> NkResult<(NetKernelHost, Vec<VerifiedStream>, u64)> {
    let mut host = NetKernelHost::new(host_cfg.clone())?;
    host.install_fault_plan(faults)?;

    let remote = host.add_remote(server.ip);
    let listener = remote.socket();
    remote.bind(listener, SockAddr::new(0, server.port))?;
    remote.listen(listener, 64)?;
    let mut server_conns: Vec<SocketId> = Vec::new();
    let mut echo_buf = vec![0u8; 16 * 1024];

    let mut steps = 0u64;
    let mut drained = 0usize;
    while (steps as usize) < max_steps {
        if streams.iter().all(VerifiedStream::done) {
            if drained >= drain_steps {
                break;
            }
            drained += 1;
        }
        let now = host.now_ns();
        for c in streams.iter_mut() {
            if now >= c.spec().start_ns && !c.done() {
                if let Some(g) = host.guest_mut(c.spec().vm) {
                    c.poll(g);
                }
            }
        }
        host.step(dt_ns);
        if let Some(remote) = host.remote_mut(server.ip) {
            echo_all(remote, listener, &mut server_conns, &mut echo_buf);
        }
        steps += 1;
        if steps.is_multiple_of(64) {
            check_sched(&host);
        }
    }

    for c in streams.iter_mut() {
        if let Some(g) = host.guest_mut(c.spec().vm) {
            c.close(g);
        }
    }
    for _ in 0..50 {
        host.step(dt_ns);
    }
    check_sched(&host);
    Ok((host, streams, steps))
}

/// Scheduler accounting: every step ends in quiescence or at the bound.
fn check_sched(host: &NetKernelHost) {
    let s = host.sched_stats();
    assert_eq!(
        s.quiescent_exits + s.round_limit_hits,
        s.steps,
        "scheduler steps unaccounted for: {s:?}",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_types::{NsmConfig, NsmId, VmConfig, VmToNsmPolicy};

    fn two_nsm_host() -> HostConfig {
        HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(2)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)))
    }

    #[test]
    fn seeded_payload_is_deterministic_and_sized() {
        assert_eq!(seeded_payload(9, 1000), seeded_payload(9, 1000));
        assert_ne!(seeded_payload(9, 1000), seeded_payload(10, 1000));
        assert_eq!(seeded_payload(9, 1000).len(), 1000);
    }

    #[test]
    fn fault_free_scenario_completes() {
        let report = Scenario::new(ScenarioConfig::new(two_nsm_host()).with_total_bytes(16 * 1024))
            .run()
            .unwrap();
        assert!(report.completed, "{report:?}");
        assert_eq!(report.bytes_verified, 16 * 1024);
        assert_eq!(report.errors_observed, 0);
        assert_eq!(report.reconnects, 0);
        assert!(report.server_stack.bytes_in >= 16 * 1024);
    }

    #[test]
    fn random_plans_are_valid_and_seed_dependent() {
        let cfg = two_nsm_host();
        let a = random_fault_plan(3, &cfg, VmId(1), 10_000_000).unwrap();
        let b = random_fault_plan(3, &cfg, VmId(1), 10_000_000).unwrap();
        let c = random_fault_plan(4, &cfg, VmId(1), 10_000_000).unwrap();
        assert_eq!(a, b, "same seed must give the same plan");
        assert_ne!(a, c, "different seeds should differ");
        assert!(!a.is_empty());
        assert!(a.validate(&cfg).is_ok());
    }

    #[test]
    fn single_nsm_host_cannot_generate_failover_plans() {
        let cfg = HostConfig::new()
            .with_vm(VmConfig::new(VmId(1)))
            .with_nsm(NsmConfig::kernel(NsmId(1)))
            .with_mapping(VmToNsmPolicy::All(NsmId(1)));
        assert_eq!(
            random_fault_plan(1, &cfg, VmId(1), 1_000_000),
            Err(NkError::BadConfig)
        );
    }

    /// Conformance: the socket-call sequence of the scenario driver, pinned
    /// as the tuple a drifted sequence would change. Values recorded at the
    /// commit before the traffic drivers were unified.
    #[test]
    fn faulted_scenario_matches_its_recorded_run() {
        let host = two_nsm_host();
        let plan = random_fault_plan(7, &host, VmId(1), 6_000_000).unwrap();
        let report = Scenario::new(ScenarioConfig::new(host).with_seed(7).with_faults(plan))
            .run()
            .unwrap();
        assert!(report.completed, "{report:?}");
        assert_eq!(
            (report.steps, report.bytes_verified, report.reconnects),
            (106, 65536, 4)
        );
    }
}
