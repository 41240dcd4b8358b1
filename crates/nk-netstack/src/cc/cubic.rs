//! CUBIC congestion control (the Linux default).

use super::{CongestionControl, INITIAL_CWND, MIN_CWND};
use nk_types::constants::MSS;

/// CUBIC scaling constant.
const C: f64 = 0.4;
/// Multiplicative decrease factor.
const BETA: f64 = 0.7;

/// CUBIC: window growth follows a cubic function of the time since the last
/// congestion event, anchored at the window size where congestion occurred.
#[derive(Clone, Debug)]
pub struct Cubic {
    cwnd: f64,
    ssthresh: f64,
    /// Window size (in MSS) just before the last reduction.
    w_max: f64,
    /// Time of the last congestion event in seconds.
    epoch_start: Option<f64>,
    /// Time offset at which the cubic curve crosses `w_max`.
    k: f64,
}

impl Cubic {
    /// A new connection's CUBIC state.
    pub fn new() -> Self {
        Cubic {
            cwnd: INITIAL_CWND as f64,
            ssthresh: f64::MAX,
            w_max: INITIAL_CWND as f64,
            epoch_start: None,
            k: 0.0,
        }
    }

    fn mss() -> f64 {
        MSS as f64
    }

    fn reduce(&mut self) {
        self.w_max = self.cwnd;
        self.cwnd = (self.cwnd * BETA).max(MIN_CWND as f64);
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
    }
}

impl Default for Cubic {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Cubic {
    fn cwnd(&self) -> usize {
        self.cwnd as usize
    }

    fn on_ack(&mut self, acked: usize, now_ns: u64) {
        let now = now_ns as f64 / 1e9;
        if self.cwnd < self.ssthresh {
            // Slow start.
            self.cwnd += acked as f64;
            return;
        }
        let epoch = *self.epoch_start.get_or_insert_with(|| {
            // Start of a new congestion-avoidance epoch: compute K, the time
            // the cubic needs to climb back to w_max.
            let w_max_mss = self.w_max / Self::mss();
            let cwnd_mss = self.cwnd / Self::mss();
            self.k = ((w_max_mss - cwnd_mss).max(0.0) / C).cbrt();
            now
        });
        let t = now - epoch;
        let w_cubic_mss = C * (t - self.k).powi(3) + self.w_max / Self::mss();
        let target = (w_cubic_mss * Self::mss()).max(MIN_CWND as f64);
        if target > self.cwnd {
            // Approach the cubic target gradually (per-ACK step proportional
            // to the gap, as the Linux implementation does per RTT).
            self.cwnd += ((target - self.cwnd) / self.cwnd * acked as f64).max(1.0);
        } else {
            // TCP-friendly floor: at least Reno-like growth.
            self.cwnd += acked as f64 * Self::mss() / self.cwnd;
        }
    }

    fn on_fast_retransmit(&mut self) {
        self.reduce();
    }

    fn on_timeout(&mut self) {
        self.reduce();
        self.cwnd = MIN_CWND as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_acks(cc: &mut Cubic, n: usize, start_ns: u64, step_ns: u64) -> u64 {
        let mut now = start_ns;
        for _ in 0..n {
            now += step_ns;
            cc.on_ack(MSS, now);
        }
        now
    }

    #[test]
    fn slow_start_then_cubic_growth() {
        let mut cc = Cubic::new();
        let initial = cc.cwnd();
        let now = drive_acks(&mut cc, 50, 0, 1_000_000);
        assert!(cc.cwnd() > initial, "slow start must grow the window");
        cc.on_fast_retransmit();
        let reduced = cc.cwnd();
        let _ = drive_acks(&mut cc, 500, now, 1_000_000);
        assert!(cc.cwnd() > reduced, "cubic must regrow after a reduction");
    }

    #[test]
    fn reduction_is_beta_fraction() {
        let mut cc = Cubic::new();
        drive_acks(&mut cc, 200, 0, 1_000_000);
        let before = cc.cwnd() as f64;
        cc.on_fast_retransmit();
        let after = cc.cwnd() as f64;
        assert!(
            (after / before - BETA).abs() < 0.05,
            "ratio {}",
            after / before
        );
    }

    #[test]
    fn concave_then_convex_growth_around_wmax() {
        let mut cc = Cubic::new();
        // Build a decent window, then cause a reduction.
        let now = drive_acks(&mut cc, 300, 0, 500_000);
        let w_max = cc.cwnd() as f64;
        cc.on_fast_retransmit();
        // Shortly after the reduction growth is fast (concave region), and it
        // flattens as the window approaches the old maximum.
        let w0 = cc.cwnd();
        let now = drive_acks(&mut cc, 50, now, 2_000_000);
        let early_growth = cc.cwnd() - w0;
        let _ = drive_acks(&mut cc, 50, now, 2_000_000);
        assert!(early_growth > 0);
        // Shortly after a reduction CUBIC stays in the concave region: the
        // window creeps back towards w_max but must not overshoot it wildly.
        assert!(
            (cc.cwnd() as f64) < w_max * 1.5,
            "window should not explode past w_max quickly"
        );
    }

    #[test]
    fn timeout_collapses_window() {
        let mut cc = Cubic::new();
        drive_acks(&mut cc, 200, 0, 1_000_000);
        cc.on_timeout();
        assert_eq!(cc.cwnd(), MIN_CWND);
    }
}
