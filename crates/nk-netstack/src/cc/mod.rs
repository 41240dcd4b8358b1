//! Pluggable congestion control.
//!
//! "We do not enforce a single transport design" (paper §1): every NSM picks
//! its own stack and congestion control. The [`CongestionControl`] trait is
//! the seam: the connection state machine asks it for the current window and
//! feeds it the signals the fabric raises: ACKs and losses. A connection
//! holds its instance inline, as a [`Cc`]: one enum over the three
//! algorithms, so opening a connection allocates nothing for it and every
//! `cwnd()` is a `match`, not a pointer chase. Three algorithms are provided:
//!
//! * [`reno::Reno`] — NewReno-style AIMD;
//! * [`cubic::Cubic`] — the Linux default the paper's Baseline runs;
//! * [`vmshared::VmSharedCc`] — one congestion window per VM shared by all of
//!   its flows (Seawall-style), fair bandwidth sharing of use case 2 (§6.2).
//!   The window is per VM on an NSM: ServiceLib hands each connection its
//!   VM's window ([`crate::TcpStack::set_cc`]). A bare stack built with
//!   [`CcAlgorithm::VmShared`] is one VM's own, so there it is per stack.

pub mod cubic;
pub mod reno;
pub mod vmshared;

pub use cubic::Cubic;
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
    /// `acked` is the number of newly acknowledged bytes and `now_ns` the
    /// virtual time of the ACK.
    fn on_ack(&mut self, acked: usize, now_ns: u64);

    /// Called on a fast-retransmit (triple duplicate ACK) loss signal.
    fn on_fast_retransmit(&mut self);

    /// Called on a retransmission timeout (a stronger loss signal).
    fn on_timeout(&mut self);
}

/// One connection's congestion-control state, held by value.
pub enum Cc {
    /// NewReno.
    Reno(Reno),
    /// CUBIC.
    Cubic(Cubic),
    /// A flow's view of its VM's shared window; dropping it leaves the share.
    VmShared(VmSharedCc),
}

/// Forward a call to whichever algorithm `$cc` holds.
macro_rules! each_cc {
    ($cc:expr, $alg:ident => $call:expr) => {
        match $cc {
            Cc::Reno($alg) => $call,
            Cc::Cubic($alg) => $call,
            Cc::VmShared($alg) => $call,
        }
    };
}

impl CongestionControl for Cc {
    fn cwnd(&self) -> usize {
        each_cc!(self, cc => cc.cwnd())
    }

    fn on_ack(&mut self, acked: usize, now_ns: u64) {
        each_cc!(self, cc => cc.on_ack(acked, now_ns))
    }

    fn on_fast_retransmit(&mut self) {
        each_cc!(self, cc => cc.on_fast_retransmit())
    }

    fn on_timeout(&mut self) {
        each_cc!(self, cc => cc.on_timeout())
    }
}

/// Factory for congestion-control instances.
#[derive(Clone)]
pub enum CcAlgorithm {
    /// NewReno.
    Reno,
    /// CUBIC.
    Cubic,
    /// Seawall-style VM-shared window: every connection the stack builds
    /// joins this one [`SharedVmWindow`], one window per stack.
    VmShared(SharedVmWindow),
}

impl CcAlgorithm {
    /// Build an instance for a new connection.
    pub fn build(&self) -> Cc {
        match self {
            CcAlgorithm::Reno => Cc::Reno(Reno::new()),
            CcAlgorithm::Cubic => Cc::Cubic(Cubic::new()),
            CcAlgorithm::VmShared(shared) => Cc::VmShared(VmSharedCc::new(shared.clone())),
        }
    }

    /// Map a [`CcKind`] configuration value to an algorithm. `VmShared`
    /// gets a fresh window for the stack; an NSM's ServiceLib moves each
    /// connection into its VM's own.
    pub fn from_kind(kind: CcKind) -> CcAlgorithm {
        match kind {
            CcKind::Reno => CcAlgorithm::Reno,
            CcKind::Cubic => CcAlgorithm::Cubic,
            CcKind::VmShared => CcAlgorithm::VmShared(SharedVmWindow::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [CcKind; 3] = [CcKind::Reno, CcKind::Cubic, CcKind::VmShared];

    #[test]
    fn factory_builds_every_algorithm() {
        for kind in KINDS {
            let cc = CcAlgorithm::from_kind(kind).build();
            let built = matches!(
                (kind, &cc),
                (CcKind::Reno, Cc::Reno(_))
                    | (CcKind::Cubic, Cc::Cubic(_))
                    | (CcKind::VmShared, Cc::VmShared(_))
            );
            assert!(built, "{kind:?} built another algorithm");
            assert!(cc.cwnd() >= MIN_CWND);
        }
    }

    /// RFC 3465 byte counting: slow start grows the window by the bytes an
    /// ACK covers, not by one MSS per ACK, so a delayed ACK covering two
    /// segments grows it exactly as much as two ACKs of one segment each.
    #[test]
    fn slow_start_counts_bytes_not_acks() {
        for kind in KINDS {
            let mut one = CcAlgorithm::from_kind(kind).build();
            let mut two = CcAlgorithm::from_kind(kind).build();
            for round in 1..=8 {
                let now = round * 1_000_000;
                one.on_ack(2 * MSS, now);
                two.on_ack(MSS, now);
                two.on_ack(MSS, now);
                assert_eq!(one.cwnd(), two.cwnd(), "{kind:?} round {round}");
            }
            assert_eq!(one.cwnd(), INITIAL_CWND + 16 * MSS, "{kind:?}");
        }
    }

    #[test]
    fn all_algorithms_grow_on_acks_and_shrink_on_loss() {
        for kind in KINDS {
            let algo = CcAlgorithm::from_kind(kind);
            let mut cc = algo.build();
            let initial = cc.cwnd();
            let mut now = 0u64;
            for _ in 0..200 {
                now += 1_000_000;
                cc.on_ack(MSS, now);
            }
            let grown = cc.cwnd();
            assert!(
                grown > initial,
                "{kind:?} did not grow: {initial} -> {grown}"
            );
            cc.on_timeout();
            assert!(
                cc.cwnd() < grown,
                "{kind:?} did not shrink on timeout: {grown} -> {}",
                cc.cwnd()
            );
            assert!(cc.cwnd() >= MIN_CWND);
        }
    }
}
