//! The cluster flight recorder: always-on, bounded, deterministic.
//!
//! The datapath, the migration machinery and the sharded executor all keep
//! enough state to *run* deterministically, but until this crate the repo
//! retained almost nothing about *what a run was doing*: the cluster event
//! log grows without bound, latency never leaves the ad-hoc experiment
//! meters, and when an evacuation reverts the epochs leading up to it are
//! gone. The flight recorder is the retained record — part of the system,
//! not of any one experiment — capturing into fixed-capacity ring buffers:
//!
//! * [`EventRing`] — a typed ring merging cluster / control / plan / fault /
//!   decision events, each stamped with a monotonic sequence number, the
//!   virtual time and the placement epoch. Wraparound keeps the newest N.
//! * [`HostFeed`] + [`EpochLatency`] — per-epoch request-completion latency
//!   (p50 / p99 / max over an [`nk_sim::Histogram`]), sampled per host from
//!   engine metric deltas and merged across shards in `HostId` order at the
//!   cluster's round barrier, so dumps are byte-identical at any thread
//!   count.
//! * [`PhaseWindow`] — migration / evacuation phase timelines: the freeze,
//!   export, reroute, install and thaw windows in virtual ns, attributed to
//!   the VM and (for planned evacuations) the plan step.
//! * [`FlowTable`] — a top-K hot-flow table (bytes / ops per 4-tuple) with
//!   deterministic space-saving eviction, fed from the frames the ToR
//!   delivers at the round barrier.
//!
//! [`FlightRecorder::snapshot`] turns all of it into a serializable
//! [`ObsDump`], filterable by epoch range, host, VM or event class, and
//! [`FlightRecorder::freeze`] is the dump-on-fault trigger: when a plan
//! rolls back or a host is killed, capture stops at that exact step so the
//! ring preserves the run-up to the fault instead of scrolling past it.
//!
//! Everything here is deterministic by construction: no wall clock, no
//! hashing over addresses, every capture made by the caller's thread at the
//! round barrier. Two runs of the same seeded scenario — at any
//! `NK_CLUSTER_THREADS` — serialize to byte-identical dumps; CI's golden loop
//! pins the `flight_recorder` example's dump in both executor modes.
//!
//! The recorder never taps a host while it polls on a helper thread: hosts
//! only *produce* — frames, metric deltas, host-feed entries — and every
//! capture happens on the caller's thread in the same merge order as the
//! serial walk. Fault and control entries drain from host feeds in `HostId`
//! order between steps, latency histograms merge in `HostId` order at epoch
//! seals, and the flow tap sits behind the ToR, which drains uplink trunks
//! in route (`HostId`) order at the round barrier. The uneven-share matrix
//! in `nk-workload/tests/parallel.rs` pins the dump across thread counts.

#![forbid(unsafe_code)]

mod event;
mod flows;
mod latency;
mod recorder;

pub use event::{EventClass, EventRing, ObsEvent, ObsEventKind, ObsFilter};
pub use flows::{FlowKey, FlowStat, FlowTable};
pub use latency::{EpochLatency, HostFeed, LatencySummary};
pub use recorder::{
    FlightRecorder, FreezeInfo, FreezeReason, MigrationPhase, ObsDump, PhaseWindow,
};
