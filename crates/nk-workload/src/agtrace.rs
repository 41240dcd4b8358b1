//! Synthetic application-gateway traffic traces (paper §6.1, Figure 7).
//!
//! The paper uses a September-2018 production trace of "tens of thousands of
//! application gateways" whose utilisation "is very low most of the time" and
//! whose traffic is bursty. That trace is proprietary, so this module
//! generates a synthetic equivalent with the same two properties the
//! multiplexing argument rests on: (1) per-AG load is bursty (short spikes to
//! near the provisioned peak) and (2) the time-average load is a small
//! fraction of the peak. Determinism comes from an explicit seed.

use nk_sim::SplitMix64;

/// Configuration of the trace generator.
#[derive(Clone, Debug)]
pub struct AgTraceConfig {
    /// Number of application gateways.
    pub gateways: usize,
    /// Trace length in minutes (the paper plots a one-hour window).
    pub minutes: usize,
    /// Peak requests-per-second an AG is provisioned for (normalised units).
    pub peak_rps: f64,
    /// Mean utilisation as a fraction of the peak (well under 1).
    pub mean_utilisation: f64,
    /// Probability that any given minute is a burst minute.
    pub burst_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AgTraceConfig {
    fn default() -> Self {
        AgTraceConfig {
            gateways: 32,
            minutes: 60,
            peak_rps: 100.0,
            mean_utilisation: 0.18,
            burst_probability: 0.08,
            seed: 2018,
        }
    }
}

/// A generated trace: per-AG, per-minute request rates.
#[derive(Clone, Debug)]
pub struct AgTrace {
    /// `rates[g][m]` is gateway `g`'s request rate in minute `m`.
    pub rates: Vec<Vec<f64>>,
    /// Peak each AG was provisioned for.
    pub peak_rps: f64,
}

impl AgTrace {
    /// Generate a trace from the configuration.
    pub fn generate(cfg: &AgTraceConfig) -> AgTrace {
        let mut rng = SplitMix64::new(cfg.seed);
        let base = cfg.peak_rps * cfg.mean_utilisation;
        let mut rates = Vec::with_capacity(cfg.gateways);
        for g in 0..cfg.gateways {
            let mut series = Vec::with_capacity(cfg.minutes);
            // Each AG gets its own baseline level and diurnal-ish wobble.
            let ag_level = base * (0.5 + rng.next_f64());
            for m in 0..cfg.minutes {
                let wobble = 1.0 + 0.3 * ((m as f64 / 10.0 + g as f64).sin());
                let mut rate = ag_level * wobble * (0.6 + 0.8 * rng.next_f64());
                if rng.next_f64() < cfg.burst_probability {
                    // A burst spikes towards the provisioned peak.
                    rate = cfg.peak_rps * (0.7 + 0.3 * rng.next_f64());
                }
                series.push(rate.min(cfg.peak_rps));
            }
            rates.push(series);
        }
        AgTrace {
            rates,
            peak_rps: cfg.peak_rps,
        }
    }

    /// Number of gateways in the trace.
    pub fn gateways(&self) -> usize {
        self.rates.len()
    }

    /// Number of minutes in the trace.
    pub fn minutes(&self) -> usize {
        self.rates.first().map_or(0, |r| r.len())
    }

    /// Peak (max over minutes) rate of gateway `g`.
    pub fn peak_of(&self, g: usize) -> f64 {
        self.rates[g].iter().copied().fold(0.0, f64::max)
    }

    /// Time-average rate of gateway `g`.
    pub fn mean_of(&self, g: usize) -> f64 {
        let s = &self.rates[g];
        s.iter().sum::<f64>() / s.len().max(1) as f64
    }

    /// Aggregate rate across a set of gateways in minute `m`.
    pub fn aggregate_at(&self, gateways: &[usize], m: usize) -> f64 {
        gateways.iter().map(|&g| self.rates[g][m]).sum()
    }

    /// Peak of the aggregate rate over a set of gateways.
    pub fn aggregate_peak(&self, gateways: &[usize]) -> f64 {
        (0..self.minutes())
            .map(|m| self.aggregate_at(gateways, m))
            .fold(0.0, f64::max)
    }

    /// Indices of the `n` most-utilised gateways (by mean rate), most
    /// utilised first — Figure 7 plots the top three.
    pub fn top_utilised(&self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.gateways()).collect();
        idx.sort_by(|&a, &b| {
            self.mean_of(b)
                .partial_cmp(&self.mean_of(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx.truncate(n);
        idx
    }

    /// How many AGs can be packed onto one NSM of capacity `nsm_rps` such
    /// that the aggregate stays below `max_utilisation * nsm_rps` for at
    /// least `coverage` of the minutes (the packing argument behind Table 2).
    pub fn packable_ags(&self, nsm_rps: f64, max_utilisation: f64, coverage: f64) -> usize {
        let budget = nsm_rps * max_utilisation;
        let mut packed: Vec<usize> = Vec::new();
        for g in 0..self.gateways() {
            let mut candidate = packed.clone();
            candidate.push(g);
            let ok_minutes = (0..self.minutes())
                .filter(|&m| self.aggregate_at(&candidate, m) <= budget)
                .count();
            if ok_minutes as f64 >= coverage * self.minutes() as f64 {
                packed = candidate;
            }
        }
        packed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_for_a_seed() {
        let cfg = AgTraceConfig::default();
        let a = AgTrace::generate(&cfg);
        let b = AgTrace::generate(&cfg);
        assert_eq!(a.rates, b.rates);
        assert_eq!(a.gateways(), cfg.gateways);
        assert_eq!(a.minutes(), cfg.minutes);
    }

    #[test]
    fn utilisation_is_low_but_bursty() {
        let trace = AgTrace::generate(&AgTraceConfig::default());
        for g in 0..trace.gateways() {
            let mean = trace.mean_of(g);
            let peak = trace.peak_of(g);
            assert!(
                mean < 0.55 * trace.peak_rps,
                "gateway {g} mean {mean} too high"
            );
            assert!(
                peak > 1.5 * mean,
                "gateway {g} is not bursty (peak {peak}, mean {mean})"
            );
        }
    }

    #[test]
    fn aggregate_peak_is_below_sum_of_peaks() {
        // Statistical multiplexing: bursts of different AGs do not align, so
        // the aggregate needs far less capacity than the sum of per-AG peaks.
        let trace = AgTrace::generate(&AgTraceConfig::default());
        let all: Vec<usize> = (0..trace.gateways()).collect();
        let sum_of_peaks: f64 = all.iter().map(|&g| trace.peak_of(g)).sum();
        let aggregate_peak = trace.aggregate_peak(&all);
        assert!(
            aggregate_peak < 0.7 * sum_of_peaks,
            "aggregate {aggregate_peak} vs sum of peaks {sum_of_peaks}"
        );
    }

    #[test]
    fn packing_fits_more_ags_than_peak_provisioning() {
        let trace = AgTrace::generate(&AgTraceConfig::default());
        // An NSM provisioned for 4 AGs' worth of peak capacity can host more
        // than 4 AGs of real traffic even under a strict 60%-utilisation /
        // 97%-of-minutes constraint.
        let packable = trace.packable_ags(4.0 * trace.peak_rps, 0.6, 0.97);
        assert!(packable > 4, "only {packable} AGs packed");
        // Relaxing the headroom constraint packs considerably more.
        let relaxed = trace.packable_ags(4.0 * trace.peak_rps, 0.9, 0.97);
        assert!(relaxed > packable, "relaxed {relaxed} vs strict {packable}");
    }

    #[test]
    fn top_utilised_is_sorted() {
        let trace = AgTrace::generate(&AgTraceConfig::default());
        let top = trace.top_utilised(3);
        assert_eq!(top.len(), 3);
        assert!(trace.mean_of(top[0]) >= trace.mean_of(top[1]));
        assert!(trace.mean_of(top[1]) >= trace.mean_of(top[2]));
    }
}
