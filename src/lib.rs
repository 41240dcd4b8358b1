//! NetKernel: making the network stack part of the virtualized infrastructure.
//!
//! This is the facade crate of the NetKernel reproduction. It re-exports the
//! public API of every workspace crate so applications (and the examples in
//! `examples/`) can depend on a single crate:
//!
//! * [`types`] — NQEs, ids, errors, configuration, the [`types::SocketApi`] trait.
//! * [`queue`] — lockless SPSC queues, queue sets and NK devices.
//! * [`shmem`] — the shared hugepage region and its allocator.
//! * [`sim`] — the deterministic discrete-event engine and cost model.
//! * [`fabric`] — virtual NICs, links and the virtual switch.
//! * [`netstack`] — the from-scratch TCP stack and congestion control.
//! * [`guest`] — GuestLib: transparent BSD socket redirection.
//! * [`service`] — ServiceLib and the Network Stack Modules.
//! * [`engine`] — CoreEngine: NQE switching, connection table, isolation.
//! * [`ctrl`] — the operator control plane: load monitoring, autoscaling,
//!   VM rebalancing, and the evacuation plans cross-host moves run as.
//! * [`host`] — host orchestration: `NetKernelHost` and its
//!   drain-until-quiescent step, the baseline VM and the calibrated
//!   performance model.
//! * [`cluster`] — the cluster fabric: hosts behind a top-of-rack switch,
//!   cross-host VM migration with connection draining, host evacuation.
//! * [`obs`] — the deterministic flight recorder: event ring, migration
//!   phase timelines, freeze stamp.
//! * [`workload`] — workload generators used by the evaluation, all
//!   streaming through one byte-verified traffic driver.

#![forbid(unsafe_code)]

pub use nk_cluster as cluster;
pub use nk_ctrl as ctrl;
pub use nk_engine as engine;
pub use nk_fabric as fabric;
pub use nk_guest as guest;
pub use nk_host as host;
pub use nk_netstack as netstack;
pub use nk_obs as obs;
pub use nk_queue as queue;
pub use nk_service as service;
pub use nk_shmem as shmem;
pub use nk_sim as sim;
pub use nk_types as types;
pub use nk_workload as workload;

pub use nk_cluster::Cluster;
pub use nk_obs::{FlightRecorder, ObsDump, ObsFilter};
pub use nk_types::{
    ClusterAction, ClusterConfig, ClusterEvent, ControlAction, ControlEvent, ControlPolicy,
    ControlTarget, FaultAction, FaultEvent, FaultPlan, LinkConfig, NkError, NkResult, SocketApi,
};
pub use nk_workload::{random_fault_plan, BurstyClient, Scenario, ScenarioConfig, ScenarioReport};
