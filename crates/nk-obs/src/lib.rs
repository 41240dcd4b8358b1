//! The cluster flight recorder: always-on, bounded, deterministic.
//!
//! The datapath, the migration machinery and the sharded executor all keep
//! enough state to *run* deterministically, but until this crate the repo
//! retained almost nothing about *what a run was doing*: the cluster event
//! log grows without bound, and when an evacuation reverts the steps
//! leading up to it are gone. The flight recorder is the retained record —
//! part of the system, not of any one experiment — capturing into
//! fixed-capacity ring buffers:
//!
//! * [`EventRing`] — a typed ring merging cluster / control / plan / fault
//!   events, each stamped with a monotonic sequence number and the virtual
//!   time. Wraparound keeps the newest N.
//! * [`PhaseWindow`] — migration / evacuation phase timelines: the freeze,
//!   export, reroute, install and thaw windows in virtual ns, attributed to
//!   the VM and (for planned evacuations) the plan step.
//!
//! [`FlightRecorder::snapshot`] turns both into a serializable [`ObsDump`],
//! whose events [`ObsFilter`] narrows by host, VM or event class, and [`FlightRecorder::freeze`] is the dump-on-fault trigger: when
//! a plan rolls back or a host is killed, capture stops at that exact step
//! so the ring preserves the run-up to the fault instead of scrolling past
//! it.
//!
//! Everything here is deterministic by construction: no wall clock, no
//! hashing over addresses, every capture made by the caller's thread
//! between steps. Two runs of the same seeded scenario — at any
//! `NK_CLUSTER_THREADS` — serialize to byte-identical dumps; CI's golden loop
//! pins the `flight_recorder` example's dump in both executor modes.
//!
//! The recorder keeps what it observed and infers nothing: it holds no
//! request latency (the datapath stamps no NQE yet) and no per-flow
//! traffic (CoreEngine counts each VM's sent bytes exactly, the host switch
//! each link's), only events and phase windows.
//!
//! The recorder taps no datapath: hosts only *produce* — applied faults,
//! control-log entries — and every capture happens on the caller's thread
//! between steps, draining the hosts in `HostId` order. The
//! uneven-share matrix in `nk-workload/tests/parallel.rs` pins the dump
//! across thread counts.

#![forbid(unsafe_code)]

mod event;
mod recorder;

pub use event::{EventClass, EventRing, ObsEvent, ObsEventKind, ObsFilter};
pub use recorder::{
    FlightRecorder, FreezeInfo, FreezeReason, MigrationPhase, ObsDump, PhaseWindow, EVENT_CAPACITY,
};
