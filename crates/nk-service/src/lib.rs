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
//! * [`service`] — [`service::ServiceLib`] plus [`service::Nsm`], the generic
//!   NSM wrapper binding a ServiceLib to a [`nk_netstack::TcpStack`]. The
//!   same wrapper implements both the *kernel-stack NSM* and the *mTCP NSM*
//!   (the difference is which cost profile and batching the host charges, and
//!   how many queue sets / cores it gets);
//! * [`sharedmem`] — the shared-memory NSM of use case 4 (§6.4), which copies
//!   payload hugepage-to-hugepage between colocated VMs and bypasses TCP
//!   entirely;
//! * [`fairshare`] — helpers giving each VM one Seawall-style shared
//!   congestion window (use case 2, §6.2).

#![forbid(unsafe_code)]

pub mod fairshare;
pub mod service;
pub mod sharedmem;

pub use fairshare::VmWindowRegistry;
pub use service::{Nsm, ServiceLib, ServiceStats};
pub use sharedmem::SharedMemNsm;
