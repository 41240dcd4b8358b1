//! Deterministic simulation substrate for the NetKernel evaluation.
//!
//! The paper's evaluation runs on a physical testbed (dual Xeon E5-2698 v3,
//! Mellanox 100 G NICs). This crate substitutes that testbed with a
//! deterministic, discrete-time model so every figure and table can be
//! regenerated on any machine:
//!
//! * [`cores`] — per-core cycle accounting: each vCPU contributes a cycle
//!   budget per step, components charge their work against it, and
//!   utilisation/overhead metrics (paper Tables 6 and 7) fall out of the
//!   ledger;
//! * [`cost`] — the calibrated cost model: cycles per NQE, per byte copied,
//!   per packet processed by the kernel-style or mTCP-style stack, per
//!   interrupt, per connection;
//! * [`bucket`] — token buckets used by CoreEngine for rate-limit isolation
//!   (paper §7.6, Figure 21);
//! * [`poll`] — the [`Pollable`] work-reporting trait every datapath
//!   component implements so the host can schedule them uniformly;
//! * [`record`] — the (time, value) series the host's control telemetry
//!   samples per epoch;
//! * [`rng`] — the workspace's seeded SplitMix64 generator, the only source
//!   of randomness (fabric impairments, fault schedules, scenario payloads)
//!   so every run is replayable from its seed.

#![forbid(unsafe_code)]

pub mod bucket;
pub mod cores;
pub mod cost;
pub mod poll;
pub mod record;
pub mod rng;

pub use bucket::TokenBucket;
pub use cores::{CorePool, CoreSet, CycleLedger, PoolMember};
pub use cost::CostModel;
pub use poll::Pollable;
pub use record::TimeSeries;
pub use rng::SplitMix64;
