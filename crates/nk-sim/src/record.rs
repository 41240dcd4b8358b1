//! The time series the host's control telemetry records.

/// A (time, value) series, sampled once per control epoch by
/// `nk_host::ControlTelemetry` (engine and per-NSM utilisation, actions
/// per epoch).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Append a sample at time `t_secs`.
    pub fn push(&mut self, t_secs: f64, value: f64) {
        self.points.push((t_secs, value));
    }

    /// The recorded samples.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the recorded values (0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|(_, v)| v).sum::<f64>() / self.points.len() as f64
        }
    }

    /// Maximum recorded value (0 for an empty series).
    pub fn max(&self) -> f64 {
        self.points.iter().map(|(_, v)| *v).fold(0.0, f64::max)
    }

    /// Minimum recorded value (0 for an empty series).
    pub fn min(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points
                .iter()
                .map(|(_, v)| *v)
                .fold(f64::INFINITY, f64::min)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_stats() {
        let mut s = TimeSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        s.push(0.0, 10.0);
        s.push(1.0, 20.0);
        s.push(2.0, 30.0);
        assert_eq!(s.len(), 3);
        assert!((s.mean() - 20.0).abs() < 1e-12);
        assert_eq!(s.max(), 30.0);
        assert_eq!(s.min(), 10.0);
    }
}
