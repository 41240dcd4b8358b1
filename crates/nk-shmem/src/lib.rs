//! Shared hugepage memory for application payload.
//!
//! "A unique set of hugepages are shared between each VM–NSM tuple for
//! application data exchange" (paper §4). GuestLib copies `send()` payload
//! from the application into the hugepage region and puts a *data pointer*
//! into the NQE; ServiceLib reads the payload out of the region (and vice
//! versa for received data). This crate provides:
//!
//! * [`region::HugepageRegion`] — the shared region (2 MB pages, paper §5)
//!   with a first-fit chunk allocator over two line bitmaps and accessors
//!   keyed by [`nk_types::DataHandle`]. A chunk holds its bytes as
//!   [`nk_types::Payload`] runs: the guest's hops copy in (into a recycled
//!   buffer) and out, and the NSM's hops hand runs to and from its stack by
//!   reference. The allocator and the runs sit behind one lock, and each
//!   hop takes it once (allocate + copy in or fill, lend + free, copy out +
//!   free);
//! * [`budget::BufferBudget`] — the per-socket send/receive buffer accounting
//!   GuestLib and ServiceLib maintain on top of the region (§4.5).

#![forbid(unsafe_code)]

pub mod budget;
pub mod region;

pub use budget::BufferBudget;
pub use region::{HugepageRegion, RegionStats};
