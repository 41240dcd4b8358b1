//! Token buckets for CoreEngine rate-limit isolation.
//!
//! "Providers can implement other forms of isolation mechanisms to rate limit
//! a VM in terms of bandwidth or the number of NQEs (i.e. operations) per
//! second" (paper §4.4); §7.6 evaluates exactly this with per-VM bandwidth
//! caps. The bucket operates on virtual time supplied by the caller so it
//! behaves identically in threaded and simulated execution.

/// A classic token bucket.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    /// Tokens added per second (bytes/s or operations/s).
    rate_per_sec: f64,
    /// Maximum burst the bucket can accumulate.
    burst: f64,
    /// Current token level.
    tokens: f64,
    /// Last refill timestamp in nanoseconds.
    last_ns: u64,
}

impl TokenBucket {
    /// A bucket refilling at `rate_per_sec` with a burst of `burst` tokens,
    /// starting full at time `now_ns`.
    pub fn new(rate_per_sec: f64, burst: f64, now_ns: u64) -> Self {
        TokenBucket {
            rate_per_sec,
            burst,
            tokens: burst,
            last_ns: now_ns,
        }
    }

    /// Convenience constructor for a bandwidth cap in Gbps, with a default
    /// burst of one millisecond worth of tokens.
    pub fn for_gbps(gbps: f64, now_ns: u64) -> Self {
        let rate = gbps * 1e9 / 8.0;
        TokenBucket::new(rate, rate / 1_000.0, now_ns)
    }

    fn refill(&mut self, now_ns: u64) {
        if now_ns > self.last_ns {
            let dt = (now_ns - self.last_ns) as f64 / 1e9;
            self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
            self.last_ns = now_ns;
        }
    }

    /// Try to consume `amount` tokens at time `now_ns`. Returns `true` when
    /// the bucket had enough tokens.
    pub fn try_consume(&mut self, amount: f64, now_ns: u64) -> bool {
        self.refill(now_ns);
        if self.tokens >= amount {
            self.tokens -= amount;
            true
        } else {
            false
        }
    }

    /// Take `amount` tokens at time `now_ns` if the bucket holds them or is
    /// full. A full bucket lends what an amount past its burst lacks, so no
    /// charge stalls for good, and refills pay the debt off before the next
    /// charge passes: the long-term rate holds. Returns `true` when taken.
    pub fn try_charge(&mut self, amount: f64, now_ns: u64) -> bool {
        self.refill(now_ns);
        if self.tokens >= amount.min(self.burst) {
            self.tokens -= amount;
            true
        } else {
            false
        }
    }

    /// Consume up to `amount` tokens, returning how many were granted.
    pub fn consume_up_to(&mut self, amount: f64, now_ns: u64) -> f64 {
        self.refill(now_ns);
        let granted = amount.min(self.tokens).max(0.0);
        self.tokens -= granted;
        granted
    }

    /// Tokens currently available at time `now_ns`.
    pub fn available(&mut self, now_ns: u64) -> f64 {
        self.refill(now_ns);
        self.tokens
    }

    /// The configured refill rate in tokens per second.
    pub fn rate_per_sec(&self) -> f64 {
        self.rate_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enforces_long_term_rate() {
        // 1000 tokens/s, burst 100.
        let mut b = TokenBucket::new(1000.0, 100.0, 0);
        let mut granted = 0.0;
        // Ask for 50 tokens every millisecond for one second: demand is 50k,
        // but only burst + rate = 100 + 1000 should be granted.
        for ms in 0..1000u64 {
            granted += b.consume_up_to(50.0, ms * 1_000_000);
        }
        assert!(granted <= 1101.0, "granted {granted} exceeds rate + burst");
        assert!(granted >= 1050.0, "granted {granted} under-delivers");
    }

    #[test]
    fn burst_is_capped() {
        let mut b = TokenBucket::new(1000.0, 10.0, 0);
        // After a long idle period the bucket holds only the burst.
        assert_eq!(b.available(10_000_000_000), 10.0);
        assert!(b.try_consume(10.0, 10_000_000_000));
        assert!(!b.try_consume(1.0, 10_000_000_000));
    }

    #[test]
    fn try_consume_is_all_or_nothing() {
        let mut b = TokenBucket::new(100.0, 5.0, 0);
        assert!(!b.try_consume(6.0, 0));
        assert_eq!(b.available(0), 5.0);
        assert!(b.try_consume(5.0, 0));
    }

    /// Fractional refills must accumulate: polling every 100 µs at 1000
    /// tokens/s adds 0.1 token per refill, and the CoreEngine stalled-NQE
    /// retry path depends on these crumbs eventually adding up.
    #[test]
    fn sub_token_refills_accumulate() {
        let mut b = TokenBucket::new(1000.0, 10.0, 0);
        assert!(b.try_consume(10.0, 0));
        for poll in 1..=100u64 {
            b.available(poll * 100_000);
        }
        // 10 ms elapsed at 1000/s: ~10 tokens back (modulo float rounding,
        // so ask for a hair less than the exact sum).
        assert!((b.available(10_000_000) - 10.0).abs() < 1e-6);
        assert!(b.try_consume(10.0 - 1e-6, 10_000_000));
    }

    /// A charge past the burst passes a full bucket only, and the debt it
    /// leaves is paid off at the refill rate before the next one passes.
    #[test]
    fn a_charge_past_the_burst_passes_a_full_bucket_and_is_paid_off() {
        let mut b = TokenBucket::new(1000.0, 100.0, 0);
        assert!(b.try_consume(1.0, 0));
        assert!(
            !b.try_charge(250.0, 0),
            "a bucket short of full lends nothing"
        );
        assert!(b.try_charge(250.0, 1_000_000));
        assert!(
            !b.try_charge(1.0, 150_000_000),
            "the debt is not paid off yet"
        );
        assert!(b.try_charge(1.0, 160_000_000));
    }

    /// Virtual time observed out of order (e.g. components polled with an
    /// older timestamp) must neither panic nor mint tokens.
    #[test]
    fn backwards_time_is_ignored() {
        let mut b = TokenBucket::new(1000.0, 5.0, 1_000_000_000);
        assert!(b.try_consume(5.0, 1_000_000_000));
        assert_eq!(b.available(0), 0.0);
        assert!(!b.try_consume(1.0, 500_000_000));
        // Time moving forward again resumes refilling from the high-water
        // mark, not from the stale timestamp.
        assert!(b.available(1_500_000_000) > 0.0);
    }

    /// A zero-rate bucket is a pure burst allowance: once spent, it throttles
    /// forever.
    #[test]
    fn zero_rate_bucket_never_refills() {
        let mut b = TokenBucket::new(0.0, 3.0, 0);
        assert!(b.try_consume(3.0, 0));
        assert!(!b.try_consume(1.0, u64::MAX / 2));
        assert_eq!(b.available(u64::MAX / 2), 0.0);
    }

    #[test]
    fn gbps_constructor_rate() {
        let mut b = TokenBucket::for_gbps(1.0, 0);
        assert!((b.rate_per_sec() - 1.25e8).abs() < 1.0);
        // Draining continuously for one second at 1 Gbps grants ~125 MB.
        let mut granted = 0.0;
        for ms in 0..1000u64 {
            granted += b.consume_up_to(1e9, ms * 1_000_000);
        }
        assert!(granted > 1.24e8 && granted < 1.27e8, "granted {granted}");
    }
}
