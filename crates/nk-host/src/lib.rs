//! Host orchestration: bringing up VMs, NSMs and CoreEngine.
//!
//! This crate assembles the pieces the other crates provide into a running
//! [`NetKernelHost`] — the NetKernel architecture (paper Figure 2):
//! GuestLibs in the VMs, ServiceLibs + stacks in the NSMs, CoreEngine
//! switching NQEs between them, all attached to one virtual switch — along
//! the lines its state is owned:
//!
//! * [`host`] — the struct, its accessors, and the step: an inject phase
//!   replaying deterministic [`nk_types::FaultPlan`] schedules ([`faults`]),
//!   poll rounds until one reports no work ([`sched`] holds the counters),
//!   and a control phase closing it;
//! * [`lanes`] — the poll round, written once: an engine and its NSMs are
//!   polled through [`nk_sim::Pollable`] and report their work, the reports
//!   are charged to the [`nk_sim::CorePool`] ledgers, then remote stacks
//!   and the virtual switch run. A host split into [`ShareLane`]s for
//!   worker threads runs the very same round in pieces;
//! * [`lifecycle`] — everything that attaches or detaches a VM or an NSM:
//!   bring-up, crash / restart, live migration, the drained and the warm
//!   export / import pairs, freeze windows, link degradation;
//! * [`control`] — the control epoch: sample the ledgers, let the
//!   [`nk_ctrl::ControlPlane`] autoscale NSM / CoreEngine cores and
//!   rebalance VMs, log every decision as a [`nk_types::ControlEvent`];
//! * [`baseline`] — [`BaselineVm`], the status-quo architecture the
//!   evaluation compares against (§7.1 "Baseline"): a bare
//!   [`nk_netstack::TcpStack`] inside the guest, which implements the same
//!   [`nk_types::SocketApi`] as GuestLib, so identical application code
//!   runs on both.
//!
//! [`model`] contains the calibrated performance model used to regenerate
//! the paper's throughput / RPS / CPU-overhead figures.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod control;
pub mod faults;
pub mod host;
pub mod lanes;
pub mod lifecycle;
pub mod model;
pub mod sched;

pub use baseline::BaselineVm;
pub use control::ControlTelemetry;
pub use faults::{FaultInjector, FaultStats};
pub use host::NetKernelHost;
pub use lanes::{LaneReport, ShareLane};
pub use lifecycle::VmExport;
pub use model::{PerfModel, TrafficDirection};
pub use sched::SchedStats;
