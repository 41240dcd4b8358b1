//! Host orchestration: bringing up VMs, NSMs and CoreEngine.
//!
//! This crate assembles the pieces the other crates provide into a running
//! host, in two configurations:
//!
//! * [`host::NetKernelHost`] — the NetKernel architecture (paper Figure 2):
//!   GuestLibs in the VMs, ServiceLibs + stacks in the NSMs, CoreEngine
//!   switching NQEs between them, all attached to one virtual switch;
//! * [`host::BaselineVm`] — the status-quo architecture the evaluation
//!   compares against (§7.1 "Baseline"): the network stack lives inside the
//!   guest, exposed through the same [`nk_types::SocketApi`] so identical
//!   application code runs on both.
//!
//! A host step drains until quiescent: every datapath component is polled
//! through the uniform [`nk_sim::Pollable`] interface in rounds until one
//! reports no work ([`sched`] documents the structure and holds its
//! counters), with an inject phase replaying deterministic
//! [`nk_types::FaultPlan`] schedules ([`faults`]: NSM crash / restart, live
//! VM migration, link degradation) before the poll rounds and a control
//! phase closing each step: at every control-epoch boundary the host
//! samples its [`nk_sim::CorePool`] ledgers and lets the
//! [`nk_ctrl::ControlPlane`] autoscale NSM / CoreEngine cores and rebalance
//! VMs, logging every decision as a [`nk_types::ControlEvent`]. [`model`] contains the calibrated
//! performance model used to regenerate the paper's throughput / RPS /
//! CPU-overhead figures.

pub mod faults;
pub mod host;
pub mod lane;
pub mod model;
pub mod sched;

pub use faults::{FaultInjector, FaultStats};
pub use host::{BaselineVm, ControlTelemetry, NetKernelHost, RemoteHost, VmExport};
pub use lane::{LaneReport, ShareLane};
pub use model::{PerfModel, TrafficDirection};
pub use sched::SchedStats;
