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
//!   scenario runner below streams through, plus an epoll echo/HTTP-style
//!   server and a closed-loop `ab`-style client;
//! * [`scenario`] — the deterministic scenario runner composing a host, one
//!   verified stream and a fault plan (NSM crashes, live migration, link
//!   degradation) with invariant checks, plus the seeded random
//!   fault-schedule generator the property tests draw from;
//! * [`bursty`] — the multi-tenant ramp-up/ramp-down runner driving the
//!   operator control plane: tenants join and leave over virtual time, every
//!   byte is verified, and the control-plane decision log (scale-up,
//!   rebalancing, scale-down) is part of the report;
//! * [`cluster`] — the cross-host scenario runner: tenants span the hosts of
//!   a [`nk_cluster::Cluster`], every byte crosses the inter-host fabric,
//!   and scripted or placer-driven migrations drain byte-verified.

#![forbid(unsafe_code)]

pub mod agtrace;
pub mod apps;
pub mod bursty;
pub mod cluster;
pub mod scenario;

pub use agtrace::{AgTrace, AgTraceConfig};
pub use apps::{echo_all, BurstyClient, ClosedLoopClient, EchoServer, VerifiedStream};
pub use bursty::{BurstyConfig, BurstyReport, BurstyScenario};
pub use cluster::{
    ClusterScenario, ClusterScenarioConfig, ClusterScenarioReport, ClusterTenant,
    PlannedEvacuation, PlannedMigration,
};
pub use scenario::{random_fault_plan, seeded_payload, Scenario, ScenarioConfig, ScenarioReport};
