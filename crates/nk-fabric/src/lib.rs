//! The virtual network fabric.
//!
//! The paper's testbed connects NSMs to a vSwitch (software or SR-IOV
//! embedded) and then to 100 G physical NICs (§4, Figure 2). This crate
//! provides the equivalent substrate for the reproduction:
//!
//! * [`port`] — a bidirectional packet port (vNIC attachment point);
//! * [`link`] — rate limiting, propagation latency, loss and reordering
//!   applied to a stream of frames;
//! * [`switch`] — the virtual switch connecting ports by destination address,
//!   with an optional uplink into a top-of-rack switch;
//! * [`tor`] — the prefix-routed top-of-rack switch joining host uplinks
//!   into one cluster fabric;
//! * [`uplink`] — the host↔ToR trunk: one [`Port`] whose host end a host
//!   shard sends into while it polls and whose ToR end the caller's thread
//!   drains at the round barrier;
//! * [`nic`] — the symmetric receive-side-scaling (RSS) flow hash frames
//!   carry, so both directions of a connection pick the same queue.
//!
//! Loss and reordering draw from `nk_sim::SplitMix64`, so they reproduce.
//!
//! The fabric is generic over the frame payload so it carries the TCP
//! segments of `nk-netstack` without a dependency cycle.

#![forbid(unsafe_code)]

pub mod link;
pub mod nic;
pub mod port;
pub mod switch;
pub mod tor;
pub mod uplink;

pub use link::{Link, LinkConfig};
pub use port::{Frame, Port};
pub use switch::{UplinkStats, VirtualSwitch};
pub use tor::TorSwitch;
pub use uplink::{uplink_pair, HostUplink, TorUplink};
