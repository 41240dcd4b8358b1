//! Workload generators used by the evaluation.
//!
//! * [`agtrace`] — a synthetic application-gateway (AG) traffic trace
//!   generator standing in for the proprietary cloud trace of §6.1: tens of
//!   gateways whose per-minute request rates are bursty and whose average
//!   utilisation is far below their provisioned peak — the property the
//!   multiplexing use case exploits;
//! * [`apps`] — application state machines written against the
//!   [`nk_types::SocketApi`] trait, usable unmodified on both the NetKernel
//!   GuestLib and the baseline in-guest stack (the property use case 3 relies
//!   on): the byte-verified stop-and-wait client and echo step every
//!   scenario streams through, plus an epoll echo/HTTP-style
//!   server and a closed-loop `ab`-style client;
//! * [`scenario`] — the one deterministic scenario runner: tenants on a
//!   [`nk_cluster::Cluster`] (a lone host is the one-host cluster) stream
//!   byte-verified payloads to an echo server while per-host fault plans,
//!   the hosts' control planes and a script of cross-host moves and
//!   evacuations play out — one spec, one run loop,
//!   one report, one set of invariants (byte integrity, scheduler
//!   accounting, exact NQE conservation per resident VM) — plus the seeded
//!   random fault-schedule generator the property tests draw from;
//! * [`rows`] — the scripted runs more than one suite needs, each defined
//!   once (`control_ramp`, `drained_move`, `warm_move`, `evacuation`,
//!   `faulted_evacuation`, `uneven_shares`, `failover`, …), and
//!   `assert_mode_invariant`, the oracle that replays a row at threads
//!   {1, 2, 4} and compares whole reports.

#![forbid(unsafe_code)]

pub mod agtrace;
pub mod apps;
pub mod rows;
pub mod scenario;

pub use agtrace::{AgTrace, AgTraceConfig};
pub use apps::{echo_all, BurstyClient, ClosedLoopClient, EchoServer, VerifiedStream};
pub use scenario::{
    random_fault_plan, seeded_payload, HostReport, Planned, PlannedOp, Scenario, ScenarioConfig,
    ScenarioReport, TenantReport,
};
