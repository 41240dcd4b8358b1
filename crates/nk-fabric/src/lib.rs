//! The virtual network fabric.
//!
//! The paper's testbed connects NSMs to a vSwitch (software or SR-IOV
//! embedded) and then to 100 G physical NICs (§4, Figure 2). This crate
//! provides the equivalent substrate for the reproduction:
//!
//! * [`port`] — a bidirectional packet port (vNIC attachment point), and
//!   the host↔ToR trunk: one port whose host end a host shard sends into
//!   while it polls and whose ToR end the caller's thread drains at the
//!   round barrier;
//! * [`link`] — rate limiting, propagation latency, loss and reordering
//!   applied to a stream of frames, in the one link shape
//!   [`LinkConfig`] that `nk-types` defines and this crate re-exports;
//! * [`switch`] — one longest-prefix route table with one forwarding loop:
//!   a host's vSwitch (vNICs as /32 routes, its own block as a drop route,
//!   its uplink as the 0/0 route) and the top-of-rack switch joining the
//!   hosts (a /16 route per host trunk) are the same type;
//! * [`nic`] — the symmetric receive-side-scaling (RSS) flow hash frames
//!   carry, so both directions of a connection pick the same queue.
//!
//! Loss and reordering draw from `nk_sim::SplitMix64`, so they reproduce.
//!
//! The fabric is generic over the frame payload so it carries the TCP
//! segments of `nk-netstack` without a dependency cycle. A payload may be a
//! [`Train`] of several same-sized wire frames: it crosses a port, a switch
//! and a clean link as one object, while every count, token-bucket charge
//! and random draw stays per wire frame.

#![forbid(unsafe_code)]

pub mod link;
pub mod nic;
pub mod port;
pub mod switch;

pub use link::{Link, LinkConfig};
pub use port::{uplink_pair, Frame, HostUplink, Port, TorUplink, Train};
pub use switch::{TorSwitch, VirtualSwitch};
