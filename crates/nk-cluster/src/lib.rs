//! The cluster fabric: NetKernel hosts operated as one system.
//!
//! The paper's bet is that network stacks, once decoupled into NSMs, become
//! *infrastructure* — and infrastructure is operated at cluster scale. This
//! crate owns that scale: a [`cluster::Cluster`] assembles a set of
//! [`nk_host::NetKernelHost`]s, wires each host's virtual switch through an
//! uplink into one top-of-rack [`nk_fabric::TorSwitch`], shares a single
//! virtual clock across all of them, and runs the
//! [`nk_ctrl::placer::Placer`] — the per-host control loop lifted to cluster
//! scope — to live-migrate VMs between hosts.
//!
//! Cross-host migration is a first-class, *drained* operation: the VM's
//! identity moves immediately (new connections open on the destination
//! host's NSM), while the connections pinned on the source host keep being
//! served until their count hits zero; only then is the source share retired
//! and, when nothing else maps to it, the source NSM scaled to zero cores.
//! Every milestone is logged as an [`nk_types::ClusterEvent`] and the whole
//! log folds into a digest, so a cluster run replays byte-identically from
//! its seed.

//! The datapath is parallel when asked: [`exec::ShardedExecutor`] deals
//! hosts — or, below the host boundary, their NSM share lanes — across
//! worker threads with a round barrier, and the results — event logs,
//! digests, stats — are byte-identical for any
//! [`nk_types::ClusterConfig::threads`] value and either granularity.
//!
//! Clearing a whole host is a *planned, revertible* operation: [`evac`]
//! compiles the evacuation into an [`nk_ctrl::EvacPlan`] (warm where the
//! exclusivity guard allows, drained otherwise), executes it in paced waves
//! with a shared freeze window, and rolls every completed action back in
//! reverse order if anything mid-plan fails — placement, routes and event
//! digest land back exactly where they started.

pub mod cluster;
pub mod evac;
pub mod exec;

pub use cluster::{Cluster, ClusterStats};
pub use evac::{ControlLogEntry, EvacFault, EvacFaultKind, EvacReport};
pub use exec::{ExecStats, ShardStats, ShardedExecutor, StepOutcome};
