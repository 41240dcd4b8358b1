//! TCP NewReno congestion control.

use super::{CongestionControl, INITIAL_CWND, MIN_CWND};
use nk_types::constants::MSS;

/// NewReno: slow start, AIMD congestion avoidance, multiplicative decrease on
/// loss.
#[derive(Clone, Debug)]
pub struct Reno {
    cwnd: usize,
    ssthresh: usize,
    /// Byte accumulator for congestion-avoidance growth (one MSS per RTT,
    /// approximated as one MSS per cwnd of acknowledged bytes).
    acked_accum: usize,
}

impl Reno {
    /// A new connection's NewReno state.
    pub fn new() -> Self {
        Reno {
            cwnd: INITIAL_CWND,
            ssthresh: usize::MAX,
            acked_accum: 0,
        }
    }

    /// True while in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
}

impl Default for Reno {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Reno {
    fn cwnd(&self) -> usize {
        self.cwnd
    }

    fn on_ack(&mut self, acked: usize, _now_ns: u64) {
        if self.in_slow_start() {
            self.cwnd += acked;
        } else {
            self.acked_accum += acked;
            while self.acked_accum >= self.cwnd {
                self.acked_accum -= self.cwnd;
                self.cwnd += MSS;
            }
        }
    }

    fn on_fast_retransmit(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(MIN_CWND);
        self.cwnd = self.ssthresh;
        self.acked_accum = 0;
    }

    fn on_timeout(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(MIN_CWND);
        self.cwnd = MIN_CWND;
        self.acked_accum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = Reno::new();
        let start = cc.cwnd();
        // Acknowledge one full window: slow start should double it.
        let mut acked = 0;
        while acked < start {
            cc.on_ack(MSS, 0);
            acked += MSS;
        }
        assert!(cc.cwnd() >= 2 * start - MSS);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut cc = Reno::new();
        cc.on_fast_retransmit(); // leave slow start
        let w = cc.cwnd();
        assert!(!cc.in_slow_start());
        // One window of ACKs grows cwnd by about one MSS.
        let mut acked = 0;
        while acked < w {
            cc.on_ack(MSS, 0);
            acked += MSS;
        }
        assert!(cc.cwnd() >= w + MSS && cc.cwnd() <= w + 2 * MSS);
    }

    #[test]
    fn timeout_collapses_to_minimum() {
        let mut cc = Reno::new();
        for _ in 0..100 {
            cc.on_ack(MSS, 0);
        }
        cc.on_timeout();
        assert_eq!(cc.cwnd(), MIN_CWND);
    }

    #[test]
    fn fast_retransmit_halves() {
        let mut cc = Reno::new();
        for _ in 0..100 {
            cc.on_ack(MSS, 0);
        }
        let before = cc.cwnd();
        cc.on_fast_retransmit();
        assert!(cc.cwnd() >= before / 2 - MSS && cc.cwnd() <= before / 2 + MSS);
    }
}
