//! CoreEngine: the NQE software switch and control plane.
//!
//! CoreEngine "runs on the hypervisor and performs actual NQE switching"
//! (paper §4.3) and also acts as the control plane (§4.4): it sets up NK
//! devices when VMs and NSMs come and go, maintains the connection table
//! mapping VM tuples to NSM tuples, polls every queue set round-robin for
//! basic fairness, and optionally enforces per-VM token-bucket rate limits or
//! operation-rate limits (§7.6).

#![forbid(unsafe_code)]
// CoreEngine switches every VM's and every NSM's NQEs, so a guest's NQE must
// never be able to panic it: a site that cannot fail names its invariant in
// an `#[expect]`.
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

pub mod engine;
pub mod table;

pub use engine::{CoreEngine, EngineStats, VmSwitchStats};
pub use table::{ConnEntry, ConnTable};
