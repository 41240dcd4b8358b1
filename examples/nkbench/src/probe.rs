//! A CPU-speed probe, because the sandbox's cores do not run at one speed.
//!
//! On the reference box a fixed pure-CPU loop takes anywhere from 135 to
//! 210 ms depending on *when* it runs, in plateaus of ten seconds and more
//! (neighbours on the host, frequency steps) — a ±25 % swing that no window
//! length averages out and that would swamp every bound below 25 %. So the
//! benchmark interleaves a small fixed kernel with the work it measures,
//! every [`SEGMENT_NS`] of wall time, and expresses measured time in
//! *reference seconds*: wall time × ([`REF_NS`] ÷ the kernel's wall time
//! around that segment). A run's rate then comes from the median segment,
//! which also discards the segments a preemption landed in.
//!
//! The kernel touches nothing of the repository — `std` only — so no change
//! to the program under test can move it: an L2-sized copy, ordered-map
//! lookups and a dependent integer chain, roughly the mix the datapath is
//! made of.

use crate::clock::now_ns;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Wall time of one [`Probe::run`] on the reference box at its fastest: the
/// definition of a "reference second". Changing it rescales every measured
/// metric by the same factor and nothing else.
pub const REF_NS: f64 = 150_000.0;

/// Wall time between two probe runs while measuring.
pub const SEGMENT_NS: u64 = 5_000_000;

/// The fixed kernel and its working set.
pub struct Probe {
    src: Vec<u8>,
    dst: Vec<u8>,
    map: BTreeMap<u64, u64>,
    x: u64,
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl Probe {
    /// A probe with its caches warm (a few untimed runs).
    pub fn new() -> Self {
        let mut probe = Probe {
            src: vec![0x5A; 256 * 1024],
            dst: vec![0; 256 * 1024],
            map: (0..4096u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i))
                .collect(),
            x: 1,
        };
        for _ in 0..8 {
            probe.run();
        }
        probe
    }

    /// Run the kernel once; returns its wall time in ns.
    pub fn run(&mut self) -> u64 {
        let start = now_ns();
        for _ in 0..2 {
            self.dst.copy_from_slice(&self.src);
            black_box(&self.dst);
        }
        let mut x = self.x;
        for _ in 0..1500 {
            x = xorshift(x);
            let key = (x % 4096).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if let Some(v) = self.map.get_mut(&key) {
                *v = v.wrapping_add(x);
            }
        }
        for _ in 0..20_000 {
            x = xorshift(x);
        }
        self.x = black_box(x);
        now_ns() - start
    }

    /// Median wall time of `n` runs, ns.
    pub fn median_of(&mut self, n: usize) -> f64 {
        let samples: Vec<f64> = (0..n).map(|_| self.run() as f64).collect();
        crate::stats::median(&samples)
    }
}

/// Convert `wall_ns` measured while the probe took `probe_ns` into
/// reference nanoseconds.
pub fn to_ref_ns(wall_ns: f64, probe_ns: f64) -> f64 {
    wall_ns * REF_NS / probe_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_time_scales_with_the_probe() {
        assert_eq!(to_ref_ns(1_000.0, REF_NS), 1_000.0);
        // The probe ran at half speed, so the same wall time was worth half
        // as much reference time.
        assert_eq!(to_ref_ns(1_000.0, 2.0 * REF_NS), 500.0);
        let mut p = Probe::new();
        assert!(p.run() > 0);
        assert!(p.median_of(3) > 0.0);
    }
}
