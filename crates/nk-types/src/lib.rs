//! Common types shared by every NetKernel crate.
//!
//! This crate defines the vocabulary of the NetKernel architecture described
//! in *"NetKernel: Making Network Stack Part of the Virtualized
//! Infrastructure"* (Niu et al., USENIX ATC 2020):
//!
//! * identifiers for VMs, NSMs, queue sets and sockets ([`ids`]),
//! * the 32-byte NetKernel Queue Element wire format ([`nqe`]),
//! * the socket operations and execution results carried by NQEs ([`ops`]),
//! * simplified socket addresses ([`addr`]),
//! * error types ([`error`]),
//! * configuration for hosts, VMs, NSMs and fabric links ([`config`]),
//! * deterministic fault-injection plans ([`faults`]),
//! * operator control-plane policies and decision events ([`control`]),
//! * cluster-scope configurations and events ([`cluster`]),
//! * cross-host migration payloads, drained and warm ([`migrate`]),
//! * the provider-facing constants of the testbed ([`constants`]),
//! * the lookup-only table with no observable order ([`detmap`]) and the
//!   slot table of reused records built on it ([`slots`]),
//! * payload bytes shared by reference and the buffers they are written
//!   into ([`payload`]),
//! * and the guest-facing non-blocking socket API trait ([`api`]) that both
//!   the NetKernel `GuestLib` and the in-guest baseline stack implement.

#![forbid(unsafe_code)]

pub mod addr;
pub mod api;
pub mod cluster;
pub mod config;
pub mod constants;
pub mod control;
pub mod detmap;
pub mod error;
pub mod faults;
pub mod ids;
pub mod migrate;
pub mod nqe;
pub mod ops;
pub mod payload;
pub mod slots;

pub use addr::SockAddr;
pub use api::{EpollEvent, PollEvents, ShutdownHow, SocketApi};
pub use cluster::{ClusterAction, ClusterConfig, ClusterEvent, ObsConfig};
pub use config::{
    CcKind, HostConfig, IsolationPolicy, LinkConfig, NsmConfig, StackKind, VmConfig, VmToNsmPolicy,
};
pub use control::{ControlAction, ControlEvent, ControlPolicy, ControlTarget};
pub use detmap::DetMap;
pub use error::{NkError, NkResult};
pub use faults::{FaultAction, FaultEvent, FaultPlan};
pub use ids::{ConnKey, HostId, NsmId, QueueSetId, SocketId, VmId};
pub use migrate::{
    ConnSnapshot, GuestSockSnapshot, TcpConnSnapshot, TcpPhase, VmExport, VmWarmExport,
};
pub use nqe::{DataHandle, Nqe, NQE_SIZE};
pub use ops::{OpResult, OpType};
pub use payload::{Payload, Recycler};
pub use slots::{Recycle, SlotTable};
