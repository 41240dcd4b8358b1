//! A from-scratch TCP/IP stack substrate.
//!
//! The paper's Network Stack Modules run real stacks — the Linux kernel
//! stack, mTCP over DPDK, or special-purpose prototypes. Neither is usable as
//! a Rust library, so this crate rebuilds the part of a stack the evaluation
//! depends on:
//!
//! * [`segment`] — TCP segments carried over the `nk-fabric` virtual switch;
//! * [`payload`] — the byte queues of the bytes they carry, held as
//!   [`Payload`] runs shared by reference from `write` to `read`;
//! * [`cc`] — pluggable congestion control: NewReno, CUBIC and the
//!   Seawall-style VM-shared window used by the fair-sharing NSM (§6.2);
//! * [`conn`] — the per-connection state machine: three-way handshake,
//!   sliding-window data transfer, delayed ACKs, retransmission (RTO and
//!   fast retransmit), out-of-order reassembly, FIN/RST teardown;
//! * [`stack`] — the socket layer: listeners and accept queues, port
//!   allocation, demultiplexing, readiness events, and the non-blocking
//!   socket-call surface ServiceLib and the baseline guest translate into,
//!   and [`NsmStack`], the calls ServiceLib makes on whichever stack it
//!   serves guests through;
//! * [`local`] — [`LocalStack`], the shared-memory NSM's stack: colocated
//!   sockets paired inside the NSM, with no TCP at all (use case 4, §6.4).
//!
//! The stack is deliberately synchronous and single-owner: it is driven by
//! `tick(now_ns)` from whoever owns it (an NSM, a baseline VM, a remote-host
//! workload endpoint), which matches how the simulator and the threaded host
//! schedule work.

#![forbid(unsafe_code)]

pub mod cc;
pub mod conn;
pub mod local;
pub mod payload;
pub mod segment;
pub mod stack;

pub use cc::{Cc, CcAlgorithm, CongestionControl, SharedVmWindow};
pub use conn::{ConnState, TcpConnection};
pub use local::LocalStack;
pub use nk_types::Payload;
pub use segment::{Segment, SegmentFlags};
pub use stack::{NsmStack, StackConfig, StackEvent, TcpStack};
