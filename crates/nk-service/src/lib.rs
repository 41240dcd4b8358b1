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
//! * `frontend` (private) — the NQE ingress: the NK device, the per-VM
//!   hugepage regions, the request drain, respond/reply, NSM-allocated guest
//!   socket ids and the failed-`Send` rule;
//! * [`service`] — [`service::ServiceLib`], the one request handler,
//!   translating NQEs onto any [`nk_netstack::NsmStack`], and
//!   [`service::StackNsm`] binding the two. A [`service::TcpNsm`] runs a
//!   [`nk_netstack::TcpStack`]: the kernel-stack and mTCP NSMs (the
//!   difference is which cost profile and batching the host charges, and
//!   how many queue sets / cores it gets). The shared-memory NSM of use
//!   case 4 (§6.4) runs a [`nk_netstack::LocalStack`], which moves payload
//!   hugepage-to-hugepage between colocated VMs and bypasses TCP entirely.
//!   On an NSM whose congestion control is `VmShared` (use case 2, §6.2),
//!   ServiceLib, the one layer that knows a connection's VM, hands each
//!   connection its VM's shared window as it opens, is accepted or is
//!   warm-installed.

#![forbid(unsafe_code)]
// One NSM serves many tenants, so a guest's NQE must never be able to panic
// it: a site that cannot fail names its invariant in an `#[expect]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable
    )
)]

mod frontend;
pub mod nsm;
pub mod service;

pub use nsm::Nsm;
pub use service::{ServiceLib, ServiceStats, StackNsm, TcpNsm};
