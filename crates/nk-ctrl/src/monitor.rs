//! Rolling-window load monitoring.

use crate::EpochSample;
use nk_types::ControlTarget;
use std::collections::{BTreeMap, VecDeque};

/// A bounded window of utilisation samples for one component.
#[derive(Clone, Debug, Default)]
struct Window {
    samples: VecDeque<f64>,
}

impl Window {
    fn push(&mut self, value: f64, capacity: usize) {
        self.samples.push_back(value);
        while self.samples.len() > capacity {
            self.samples.pop_front();
        }
    }

    fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
}

/// Folds per-epoch [`EpochSample`]s into rolling per-component windows.
///
/// The monitor is what gives the loop hysteresis on the *input* side: a
/// single bursty epoch moves the smoothed value by only `1/window`, so
/// watermark crossings reflect sustained load. Components only act once
/// their window is full ([`LoadMonitor::ready`]), which also keeps a
/// freshly restarted NSM from being scaled on one sample of history.
#[derive(Clone, Debug)]
pub struct LoadMonitor {
    window: usize,
    windows: BTreeMap<ControlTarget, Window>,
}

impl LoadMonitor {
    /// A monitor smoothing over `window` epochs (clamped to at least one).
    pub fn new(window: usize) -> Self {
        LoadMonitor {
            window: window.max(1),
            windows: BTreeMap::new(),
        }
    }

    /// The configured window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Fold one epoch's sample in. NSMs absent from the sample (crashed or
    /// deprovisioned) have their history dropped: a component that comes
    /// back starts a fresh window.
    pub fn observe(&mut self, sample: &EpochSample) {
        self.windows.retain(|target, _| match target {
            ControlTarget::Engine => true,
            ControlTarget::Nsm(id) => sample.nsms.contains_key(id),
        });
        self.windows
            .entry(ControlTarget::Engine)
            .or_default()
            .push(sample.engine_utilisation, self.window);
        for (id, load) in &sample.nsms {
            self.windows
                .entry(ControlTarget::Nsm(*id))
                .or_default()
                .push(load.utilisation, self.window);
        }
    }

    /// Smoothed utilisation of a component (0 when unknown).
    pub fn smoothed(&self, target: ControlTarget) -> f64 {
        self.windows.get(&target).map(Window::mean).unwrap_or(0.0)
    }

    /// True once the component's window is full — the earliest point a
    /// scaling or rebalancing decision may use it.
    pub fn ready(&self, target: ControlTarget) -> bool {
        self.windows
            .get(&target)
            .is_some_and(|w| w.samples.len() >= self.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NsmLoad;
    use nk_types::NsmId;

    fn sample_with(nsms: &[(u8, f64)]) -> EpochSample {
        EpochSample {
            now_ns: 0,
            engine_cores: 1,
            engine_utilisation: 0.5,
            nsms: nsms
                .iter()
                .map(|&(id, util)| {
                    (
                        NsmId(id),
                        NsmLoad {
                            cores: 1,
                            utilisation: util,
                            queue_depth: 0,
                            vm_bytes: BTreeMap::new(),
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn smoothing_averages_over_the_window() {
        let mut m = LoadMonitor::new(2);
        m.observe(&sample_with(&[(1, 1.0)]));
        assert!(!m.ready(ControlTarget::Nsm(NsmId(1))));
        assert_eq!(m.smoothed(ControlTarget::Nsm(NsmId(1))), 1.0);
        m.observe(&sample_with(&[(1, 0.0)]));
        assert!(m.ready(ControlTarget::Nsm(NsmId(1))));
        assert_eq!(m.smoothed(ControlTarget::Nsm(NsmId(1))), 0.5);
        // The window slides: a third sample evicts the first.
        m.observe(&sample_with(&[(1, 0.0)]));
        assert_eq!(m.smoothed(ControlTarget::Nsm(NsmId(1))), 0.0);
        assert_eq!(m.smoothed(ControlTarget::Engine), 0.5);
    }

    #[test]
    fn unknown_components_read_as_idle() {
        let m = LoadMonitor::new(4);
        assert_eq!(m.smoothed(ControlTarget::Nsm(NsmId(9))), 0.0);
        assert!(!m.ready(ControlTarget::Engine));
    }

    /// A crashed NSM loses its history; when it reappears it starts fresh
    /// and is not `ready` until its window refills.
    #[test]
    fn vanished_nsm_history_is_dropped() {
        let mut m = LoadMonitor::new(1);
        m.observe(&sample_with(&[(1, 0.9), (2, 0.1)]));
        assert!(m.ready(ControlTarget::Nsm(NsmId(1))));
        m.observe(&sample_with(&[(2, 0.1)]));
        assert!(!m.ready(ControlTarget::Nsm(NsmId(1))));
        assert_eq!(m.smoothed(ControlTarget::Nsm(NsmId(1))), 0.0);
        assert_eq!(m.smoothed(ControlTarget::Nsm(NsmId(2))), 0.1);
    }

    #[test]
    fn zero_window_is_clamped() {
        let m = LoadMonitor::new(0);
        assert_eq!(m.window(), 1);
    }
}
