//! GuestLib: transparent BSD socket redirection inside the tenant VM.
//!
//! GuestLib is "the only change we make to the user VM" (paper §4): it
//! registers a new socket type (`SOCK_NETKERNEL`) whose operations are
//! translated into NQEs and shipped to the Network Stack Module over the NK
//! device queues, while application payload travels through the shared
//! hugepages. The [`GuestLib`] type implements the same
//! [`SocketApi`](nk_types::SocketApi) trait as the baseline in-guest stack,
//! so unmodified applications (and workload generators) run on either.

#![forbid(unsafe_code)]
// Every NQE a VM receives crosses GuestLib, so a response must never be
// able to panic the guest: a site that cannot fail names its invariant in
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

pub mod guestlib;
pub mod sockstate;

pub use guestlib::{GuestLib, GuestStats};
pub use sockstate::{GuestSocket, GuestSocketState};
