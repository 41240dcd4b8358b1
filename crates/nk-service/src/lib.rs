//! ServiceLib and the Network Stack Modules (NSMs).
//!
//! An NSM is the provider-operated entity that actually runs a network stack
//! on behalf of tenant VMs (paper §3–§4). Inside it, *ServiceLib* "interfaces
//! with the network stack": it translates request NQEs arriving from
//! CoreEngine into stack calls, moves payload between the shared hugepages
//! and the stack, and turns stack events back into completion / data NQEs.
//!
//! Provided modules:
//!
//! * [`nsm`] — [`nsm::Nsm`], the one NSM type a host stores, in either
//!   flavour;
//! * `frontend` (private) — the NQE ingress both flavours share: the NK
//!   device, the per-VM hugepage regions, the request drain, respond/reply,
//!   NSM-allocated guest socket ids and the failed-`Send` rule;
//! * [`service`] — [`service::ServiceLib`], the TCP flavour's translation
//!   onto a [`nk_netstack::TcpStack`], and [`service::TcpNsm`] binding the
//!   two. The kernel-stack, mTCP and fair-share NSMs are all this flavour
//!   (the difference is which cost profile and batching the host charges,
//!   and how many queue sets / cores it gets);
//! * [`sharedmem`] — the shared-memory NSM of use case 4 (§6.4), which moves
//!   payload hugepage-to-hugepage between colocated VMs and bypasses TCP
//!   entirely;
//! * [`fairshare`] — helpers giving each VM one Seawall-style shared
//!   congestion window (use case 2, §6.2).

#![forbid(unsafe_code)]

pub mod fairshare;
mod frontend;
pub mod nsm;
pub mod service;
pub mod sharedmem;

pub use fairshare::VmWindowRegistry;
pub use nsm::Nsm;
pub use service::{ServiceLib, ServiceStats, TcpNsm};
pub use sharedmem::{SharedMemNsm, SharedMemStats};
