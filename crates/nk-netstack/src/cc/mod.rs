//! Pluggable congestion control.
//!
//! "We do not enforce a single transport design" (paper §1): every NSM picks
//! its own stack and congestion control. The [`CongestionControl`] trait is
//! the seam: the connection state machine asks it for the current window and
//! feeds it ACK/loss/ECN signals. A connection holds its instance inline, as
//! a [`Cc`]: one enum over the four algorithms, so opening a connection
//! allocates nothing for it and every `cwnd()` is a `match`, not a pointer
//! chase. Four algorithms are provided:
//!
//! * [`reno::Reno`] — NewReno-style AIMD;
//! * [`cubic::Cubic`] — the Linux default the paper's Baseline runs;
//! * [`dctcp::Dctcp`] — proportional ECN response, the stack the community
//!   "is still finding ways to deploy in the public cloud" (§1);
//! * [`vmshared::VmSharedCc`] — one congestion window per VM shared by all of
//!   its flows (Seawall-style), powering the fair-bandwidth-sharing NSM of
//!   use case 2 (§6.2).

pub mod cubic;
pub mod dctcp;
pub mod reno;
pub mod vmshared;

pub use cubic::Cubic;
pub use dctcp::Dctcp;
pub use reno::Reno;
pub use vmshared::{SharedVmWindow, VmSharedCc};

use nk_types::constants::MSS;
use nk_types::CcKind;

/// Initial congestion window (10 segments, as in modern Linux).
pub const INITIAL_CWND: usize = 10 * MSS;
/// Minimum congestion window (2 segments).
pub const MIN_CWND: usize = 2 * MSS;

/// Congestion-control algorithm driven by the connection state machine.
pub trait CongestionControl: Send {
    /// Current congestion window in bytes.
    fn cwnd(&self) -> usize;

    /// Called for every ACK that advances the cumulative acknowledgement.
    ///
    /// `acked` is the number of newly acknowledged bytes, `rtt_ns` the RTT
    /// sample for this ACK (0 when unavailable), and `ecn_echo` whether the
    /// ACK carried an ECN echo.
    fn on_ack(&mut self, acked: usize, rtt_ns: u64, ecn_echo: bool, now_ns: u64);

    /// Called on a fast-retransmit (triple duplicate ACK) loss signal.
    fn on_fast_retransmit(&mut self, now_ns: u64);

    /// Called on a retransmission timeout (a stronger loss signal).
    fn on_timeout(&mut self, now_ns: u64);

    /// Human-readable algorithm name (mirrors `TCP_CONGESTION`).
    fn name(&self) -> &'static str;
}

/// One connection's congestion-control state, held by value.
pub enum Cc {
    /// NewReno.
    Reno(Reno),
    /// CUBIC.
    Cubic(Cubic),
    /// DCTCP.
    Dctcp(Dctcp),
    /// A flow's view of its VM's shared window; dropping it leaves the share.
    VmShared(VmSharedCc),
}

/// Forward a call to whichever algorithm `$cc` holds.
macro_rules! each_cc {
    ($cc:expr, $alg:ident => $call:expr) => {
        match $cc {
            Cc::Reno($alg) => $call,
            Cc::Cubic($alg) => $call,
            Cc::Dctcp($alg) => $call,
            Cc::VmShared($alg) => $call,
        }
    };
}

impl CongestionControl for Cc {
    fn cwnd(&self) -> usize {
        each_cc!(self, cc => cc.cwnd())
    }

    fn on_ack(&mut self, acked: usize, rtt_ns: u64, ecn_echo: bool, now_ns: u64) {
        each_cc!(self, cc => cc.on_ack(acked, rtt_ns, ecn_echo, now_ns))
    }

    fn on_fast_retransmit(&mut self, now_ns: u64) {
        each_cc!(self, cc => cc.on_fast_retransmit(now_ns))
    }

    fn on_timeout(&mut self, now_ns: u64) {
        each_cc!(self, cc => cc.on_timeout(now_ns))
    }

    fn name(&self) -> &'static str {
        each_cc!(self, cc => cc.name())
    }
}

/// Factory for congestion-control instances.
#[derive(Clone)]
pub enum CcAlgorithm {
    /// NewReno.
    Reno,
    /// CUBIC.
    Cubic,
    /// DCTCP.
    Dctcp,
    /// Seawall-style VM-shared window; all connections built from the same
    /// [`SharedVmWindow`] share one congestion window.
    VmShared(SharedVmWindow),
}

impl CcAlgorithm {
    /// Build an instance for a new connection.
    pub fn build(&self) -> Cc {
        match self {
            CcAlgorithm::Reno => Cc::Reno(Reno::new()),
            CcAlgorithm::Cubic => Cc::Cubic(Cubic::new()),
            CcAlgorithm::Dctcp => Cc::Dctcp(Dctcp::new()),
            CcAlgorithm::VmShared(shared) => Cc::VmShared(VmSharedCc::new(shared.clone())),
        }
    }

    /// Map a [`CcKind`] configuration value to an algorithm. `VmShared`
    /// requires a shared window, created fresh here; callers that want
    /// several connections to share a window should construct
    /// [`CcAlgorithm::VmShared`] themselves.
    pub fn from_kind(kind: CcKind) -> CcAlgorithm {
        match kind {
            CcKind::Reno => CcAlgorithm::Reno,
            CcKind::Cubic => CcAlgorithm::Cubic,
            CcKind::Dctcp => CcAlgorithm::Dctcp,
            CcKind::VmShared => CcAlgorithm::VmShared(SharedVmWindow::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_algorithm() {
        for (kind, name) in [
            (CcKind::Reno, "reno"),
            (CcKind::Cubic, "cubic"),
            (CcKind::Dctcp, "dctcp"),
            (CcKind::VmShared, "vm-shared"),
        ] {
            let algo = CcAlgorithm::from_kind(kind);
            let cc = algo.build();
            assert_eq!(cc.name(), name);
            assert!(cc.cwnd() >= MIN_CWND);
        }
    }

    /// RFC 3465 byte counting: slow start grows the window by the bytes an
    /// ACK covers, not by one MSS per ACK, so a delayed ACK covering two
    /// segments grows it exactly as much as two ACKs of one segment each.
    #[test]
    fn slow_start_counts_bytes_not_acks() {
        for kind in [CcKind::Reno, CcKind::Cubic, CcKind::Dctcp, CcKind::VmShared] {
            let mut one = CcAlgorithm::from_kind(kind).build();
            let mut two = CcAlgorithm::from_kind(kind).build();
            for round in 1..=8 {
                let now = round * 1_000_000;
                one.on_ack(2 * MSS, 100_000, false, now);
                two.on_ack(MSS, 100_000, false, now);
                two.on_ack(MSS, 100_000, false, now);
                assert_eq!(one.cwnd(), two.cwnd(), "{} round {round}", one.name());
            }
            assert_eq!(one.cwnd(), INITIAL_CWND + 16 * MSS, "{}", one.name());
        }
    }

    #[test]
    fn all_algorithms_grow_on_acks_and_shrink_on_loss() {
        for kind in [CcKind::Reno, CcKind::Cubic, CcKind::Dctcp, CcKind::VmShared] {
            let algo = CcAlgorithm::from_kind(kind);
            let mut cc = algo.build();
            let initial = cc.cwnd();
            let mut now = 0u64;
            for _ in 0..200 {
                now += 1_000_000;
                cc.on_ack(MSS, 100_000, false, now);
            }
            let grown = cc.cwnd();
            assert!(
                grown > initial,
                "{} did not grow: {initial} -> {grown}",
                cc.name()
            );
            cc.on_timeout(now);
            assert!(
                cc.cwnd() < grown,
                "{} did not shrink on timeout: {grown} -> {}",
                cc.name(),
                cc.cwnd()
            );
            assert!(cc.cwnd() >= MIN_CWND);
        }
    }
}
