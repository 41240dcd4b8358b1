//! Lockless queues and NK devices for NQE transmission.
//!
//! NetKernel moves socket semantics between the guest and its NSM through
//! *scalable lockless queues* (paper §3, §4.3): each queue is shared memory
//! between exactly one producer and one consumer, so no locks are required,
//! and each vCPU gets a dedicated *queue set* so throughput scales with cores.
//!
//! This crate provides:
//!
//! * [`spsc`] — a bounded single-producer/single-consumer lock-free ring
//!   buffer, the building block of every NQE queue: `push`, `pop` and
//!   `pop_batch` over four `unsafe` sites, the datapath's only ones. Each
//!   end owns its index, and a batch is published with one store; a caller
//!   holding both ends `rewind`s an empty ring to slot 0;
//! * [`mod@unbounded`] — an unbounded wait-free SPSC queue with no datapath
//!   user: the round barrier orders every cross-shard hand-off, so those
//!   edges are plain ports. nkbench's `queue.unbounded_ns` drive still names
//!   it, which pins it until ROADMAP item 7;
//! * [`queueset`] — the four-queue set (job / completion / send / receive) of
//!   the paper's Figure 5, split into a requester end and a responder end,
//!   which parks a response a full ring cannot take and never drops one,
//!   and [`rewind_set`] over its four rings;
//! * [`device`] — the NK device: the per-entity collection of queue sets plus
//!   the wake flag of the interrupt-driven-polling notification of §4.6.

#![deny(clippy::undocumented_unsafe_blocks)]
// Every NQE of every VM and NSM crosses these rings, so a ring must never
// panic on the datapath: a site that cannot fail names its invariant in an
// `#[expect]`.
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

pub mod device;
pub mod queueset;
pub mod spsc;
pub mod unbounded;

pub use device::{NkDevice, WakeState};
pub use queueset::{queue_set_pair, rewind_set, RequesterEnd, ResponderEnd};
pub use spsc::{channel, Consumer, Producer};
pub use unbounded::{unbounded, UnboundedConsumer, UnboundedProducer};
