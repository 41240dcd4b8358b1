//! The cluster fabric: NetKernel hosts operated as one system.
//!
//! The paper's bet is that network stacks, once decoupled into NSMs, become
//! *infrastructure* — and infrastructure is operated at cluster scale. This
//! crate owns that scale: a [`cluster::Cluster`] assembles a set of
//! [`nk_host::NetKernelHost`]s, wires each host's virtual switch through an
//! uplink into one top-of-rack [`nk_fabric::TorSwitch`], shares a single
//! virtual clock across all of them, and moves VMs between hosts when the
//! operator asks. Decisions stay host-scope: each host's own control plane
//! resizes its NSMs and rebalances its VMs (paper §3, §6).
//!
//! Moving a VM between hosts is one mechanism with three entry points.
//! [`Cluster::migrate_vm`] (drained: the identity moves now, connections
//! pinned on the source keep being served until their count hits zero, then
//! the source share retires and scales to zero), [`Cluster::migrate_vm_warm`]
//! (the connections move too, inside one freeze window) and
//! [`Cluster::evacuate_host`] (every VM of a host, in paced waves) each
//! compile an [`nk_ctrl::EvacPlan`] that the move executor in [`evac`] runs
//! step by step; a failure at any step reverts the completed ones in reverse
//! order, so placement, routes and event digest land back exactly where they
//! started. Every milestone is logged as an [`nk_types::ClusterEvent`] and
//! the whole log folds into a digest, so a cluster run replays
//! byte-identically from its seed.
//!
//! The datapath is parallel when asked: [`exec::ShardedExecutor`] deals
//! whole hosts — the one parallel unit — across OS threads: the caller's,
//! and a crew of helpers that lives as long as the cluster and meets the
//! caller once per round. The results — event logs, digests, stats — are
//! byte-identical for any [`nk_types::ClusterConfig::threads`] value.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod evac;
pub mod exec;

pub use cluster::{Cluster, ClusterStats};
pub use evac::{EvacFault, EvacFaultKind, EvacReport};
pub use exec::{ExecStats, ShardedExecutor, StepOutcome};
