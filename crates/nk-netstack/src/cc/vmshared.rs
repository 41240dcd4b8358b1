//! Seawall-style VM-level congestion control.
//!
//! Use case 2 of the paper (§6.2): "One VM maintains a global congestion
//! window shared among all its connections to different destinations. Each
//! individual flow's ACK advances the shared congestion window, and when
//! sending data, each flow cannot send more than 1/n of the shared window
//! where n is the number of active flows." This gives *VM-level* fairness —
//! a selfish VM opening many flows gets no more bandwidth than a well-behaved
//! one (Figure 9).

#![expect(
    clippy::disallowed_types,
    reason = "cross-shard-locks: the shared VM window is cloned only into \
              connections of one VM, which all live on that VM's NSM stack and \
              are ticked by one thread at a time; the Mutex is interior \
              mutability, never contended across shards."
)]

use super::{CongestionControl, INITIAL_CWND, MIN_CWND};
use nk_types::constants::MSS;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

struct SharedState {
    cwnd: usize,
    ssthresh: usize,
    acked_accum: usize,
}

/// The per-VM shared congestion window. Clone it into every connection of the
/// same VM (a `VmShared` NSM's ServiceLib keeps one per VM it serves).
#[derive(Clone)]
pub struct SharedVmWindow {
    state: Arc<Mutex<SharedState>>,
    active_flows: Arc<AtomicUsize>,
}

impl SharedVmWindow {
    /// A fresh shared window for one VM.
    pub fn new() -> Self {
        SharedVmWindow {
            state: Arc::new(Mutex::new(SharedState {
                cwnd: INITIAL_CWND,
                ssthresh: usize::MAX,
                acked_accum: 0,
            })),
            active_flows: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Total shared window in bytes.
    pub fn total_cwnd(&self) -> usize {
        self.state.lock().unwrap().cwnd
    }

    /// Number of flows currently sharing the window.
    pub fn active_flows(&self) -> usize {
        self.active_flows.load(Ordering::Relaxed)
    }

    fn register(&self) {
        self.active_flows.fetch_add(1, Ordering::Relaxed);
    }

    fn unregister(&self) {
        self.active_flows.fetch_sub(1, Ordering::Relaxed);
    }

    fn on_ack(&self, acked: usize) {
        let mut s = self.state.lock().unwrap();
        if s.cwnd < s.ssthresh {
            s.cwnd += acked;
        } else {
            s.acked_accum += acked;
            while s.acked_accum >= s.cwnd {
                let w = s.cwnd;
                s.acked_accum -= w;
                s.cwnd += MSS;
            }
        }
    }

    fn on_loss(&self, timeout: bool) {
        let mut s = self.state.lock().unwrap();
        s.ssthresh = (s.cwnd / 2).max(MIN_CWND);
        s.cwnd = if timeout { MIN_CWND } else { s.ssthresh };
        s.acked_accum = 0;
    }
}

impl Default for SharedVmWindow {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-connection view of a [`SharedVmWindow`].
pub struct VmSharedCc {
    shared: SharedVmWindow,
}

impl VmSharedCc {
    /// Join the given VM's shared window.
    pub fn new(shared: SharedVmWindow) -> Self {
        shared.register();
        VmSharedCc { shared }
    }
}

impl Drop for VmSharedCc {
    fn drop(&mut self) {
        self.shared.unregister();
    }
}

impl CongestionControl for VmSharedCc {
    fn cwnd(&self) -> usize {
        // Each flow may use at most 1/n of the shared window.
        let share = self.shared.total_cwnd() / self.shared.active_flows().max(1);
        share.max(MSS)
    }

    fn on_ack(&mut self, acked: usize, _now_ns: u64) {
        self.shared.on_ack(acked);
    }

    fn on_fast_retransmit(&mut self) {
        self.shared.on_loss(false);
    }

    fn on_timeout(&mut self) {
        self.shared.on_loss(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_split_the_shared_window_equally() {
        let shared = SharedVmWindow::new();
        let a = VmSharedCc::new(shared.clone());
        let b = VmSharedCc::new(shared.clone());
        let c = VmSharedCc::new(shared.clone());
        assert_eq!(shared.active_flows(), 3);
        let total = shared.total_cwnd();
        assert!(a.cwnd() <= total / 3 + MSS);
        assert_eq!(a.cwnd(), b.cwnd());
        assert_eq!(b.cwnd(), c.cwnd());
    }

    #[test]
    fn adding_flows_does_not_grow_the_total() {
        let shared = SharedVmWindow::new();
        let flows: Vec<VmSharedCc> = (0..8).map(|_| VmSharedCc::new(shared.clone())).collect();
        let total_before = shared.total_cwnd();
        let more: Vec<VmSharedCc> = (0..16).map(|_| VmSharedCc::new(shared.clone())).collect();
        assert_eq!(shared.total_cwnd(), total_before);
        // Per-flow share shrinks instead.
        assert!(more[0].cwnd() < total_before / 8 + MSS);
        drop(flows);
        drop(more);
        assert_eq!(shared.active_flows(), 0);
    }

    #[test]
    fn any_flows_ack_advances_the_shared_window() {
        let shared = SharedVmWindow::new();
        let mut a = VmSharedCc::new(shared.clone());
        let _b = VmSharedCc::new(shared.clone());
        let before = shared.total_cwnd();
        for _ in 0..50 {
            a.on_ack(MSS, 0);
        }
        assert!(shared.total_cwnd() > before);
    }

    #[test]
    fn loss_on_one_flow_halves_the_shared_window() {
        let shared = SharedVmWindow::new();
        let mut a = VmSharedCc::new(shared.clone());
        let mut b = VmSharedCc::new(shared.clone());
        for _ in 0..100 {
            a.on_ack(MSS, 0);
            b.on_ack(MSS, 0);
        }
        let before = shared.total_cwnd();
        b.on_fast_retransmit();
        let after = shared.total_cwnd();
        assert!(after <= before / 2 + MSS);
        assert!(after >= MIN_CWND);
        a.on_timeout();
        assert_eq!(shared.total_cwnd(), MIN_CWND);
    }

    #[test]
    fn unregister_restores_share() {
        let shared = SharedVmWindow::new();
        let a = VmSharedCc::new(shared.clone());
        {
            let _b = VmSharedCc::new(shared.clone());
            assert_eq!(shared.active_flows(), 2);
        }
        assert_eq!(shared.active_flows(), 1);
        assert!(a.cwnd() >= shared.total_cwnd());
    }
}
