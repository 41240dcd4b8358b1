// nk-lint: allow-file(wall-clock) — the benchmark's single wall-clock source: measured metrics need real time, and keeping every `Instant::now` here keeps the rest of the tree under the rule.

//! The one place `nkbench` reads the wall clock.
//!
//! Everything the benchmark times goes through [`now_ns`] (a monotonic
//! nanosecond counter anchored at first use), so measured numbers share one
//! time base and the `wall-clock` lint has exactly one file to exempt.

use std::sync::OnceLock;
use std::time::Instant;

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Monotonic wall-clock nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    let anchor = *ANCHOR.get_or_init(Instant::now);
    // A process would have to run for centuries to overflow u64 nanoseconds.
    Instant::now().duration_since(anchor).as_nanos() as u64
}

/// Seconds between two [`now_ns`] readings.
pub fn secs_between(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 / 1e9
}
