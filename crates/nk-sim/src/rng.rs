//! A tiny deterministic PRNG (SplitMix64).
//!
//! Every randomized decision in the simulation — frame loss and reordering
//! in the fabric, generated fault schedules, scenario payloads — must be
//! reproducible across runs and platforms, so the workspace uses this one
//! seeded generator instead of any global randomness. It lives in `nk-sim`,
//! the deterministic substrate every other crate builds on.

/// SplitMix64 pseudo-random number generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)`; returns 0 when `bound` is 0.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn f64_is_in_unit_interval_and_roughly_uniform() {
        let mut r = SplitMix64::new(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn chance_edge_cases() {
        let mut r = SplitMix64::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.03);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(11);
        for _ in 0..1000 {
            assert!(r.next_below(7) < 7);
        }
        assert_eq!(r.next_below(0), 0);
    }
}
