//! The host↔ToR uplink: a pair of wait-free SPSC frame channels.
//!
//! A clustered host's switch and the top-of-rack switch used to share one
//! mutex-guarded [`crate::port::Port`]. With the cluster datapath sharded
//! across threads, the uplink is the *only* cross-shard edge — the host side
//! lives on whichever thread polls the host's shard, the ToR side on the
//! caller's thread at the round barrier — so it is built from two [`nk_queue::unbounded()`] SPSC queues instead: each
//! direction has exactly one producer (the host's TX, the ToR's delivery)
//! and one consumer (the ToR's ingress drain, the host's RX), no locks, and
//! pushes that can never fail (dropping a frame on overflow would make
//! behaviour depend on shard timing).
//!
//! The caller's thread drains every uplink at the round barrier in route order —
//! host trunks sort by prefix, i.e. ascending `HostId` — which is what keeps
//! cross-shard frame merging deterministic for any thread count.

use crate::port::Frame;
use nk_queue::unbounded::{unbounded, UnboundedConsumer, UnboundedProducer};

/// The host-switch side of an uplink trunk: frames with no local destination
/// leave through [`HostUplink::send`]; ToR deliveries arrive via
/// [`HostUplink::recv`]. Owned by exactly one host (one shard).
pub struct HostUplink<P> {
    to_tor: UnboundedProducer<Frame<P>>,
    from_tor: UnboundedConsumer<Frame<P>>,
    prefix: u32,
}

/// The ToR side of the same trunk: [`TorUplink::drain_into`] collects the
/// host's outbound frames at the round barrier, [`TorUplink::deliver`]
/// pushes frames down towards the host. Owned by the ToR, which only the
/// caller's thread touches, at the round barrier.
pub struct TorUplink<P> {
    from_host: UnboundedConsumer<Frame<P>>,
    to_host: UnboundedProducer<Frame<P>>,
}

/// Create the two ends of one uplink trunk for the address block at
/// `prefix`.
pub fn uplink_pair<P>(prefix: u32) -> (HostUplink<P>, TorUplink<P>) {
    let (to_tor, from_host) = unbounded();
    let (to_host, from_tor) = unbounded();
    (
        HostUplink {
            to_tor,
            from_tor,
            prefix,
        },
        TorUplink { from_host, to_host },
    )
}

impl<P> HostUplink<P> {
    /// The trunk's (masked) address block, for diagnostics.
    pub fn prefix(&self) -> u32 {
        self.prefix
    }

    /// Queue a frame towards the ToR. Wait-free, never fails.
    pub fn send(&mut self, frame: Frame<P>) {
        self.to_tor.push(frame);
    }

    /// Take one frame the ToR delivered, if any.
    pub fn recv(&mut self) -> Option<Frame<P>> {
        self.from_tor.pop()
    }

    /// Number of delivered frames waiting.
    pub fn rx_pending(&self) -> usize {
        self.from_tor.len()
    }

    /// Number of outbound frames not yet drained by the ToR.
    pub fn tx_pending(&self) -> usize {
        self.to_tor.len()
    }
}

impl<P> TorUplink<P> {
    /// Drain every frame the host sent, appending to `out`; returns how
    /// many were drained.
    pub fn drain_into(&mut self, out: &mut Vec<Frame<P>>) -> usize {
        self.from_host.drain_into(out)
    }

    /// Deliver a frame down towards the host. Wait-free, never fails.
    pub fn deliver(&mut self, frame: Frame<P>) {
        self.to_host.push(frame);
    }

    /// Number of frames awaiting pickup from the host.
    pub fn pending_from_host(&self) -> usize {
        self.from_host.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(dst: u32, tag: u32) -> Frame<u32> {
        Frame {
            src: 1,
            dst,
            flow_hash: tag as u64,
            wire_bytes: 100,
            payload: tag,
        }
    }

    #[test]
    fn frames_flow_both_directions_in_order() {
        let (mut host, mut tor) = uplink_pair::<u32>(0x0A01_0000);
        assert_eq!(host.prefix(), 0x0A01_0000);
        host.send(frame(0x0A02_0001, 1));
        host.send(frame(0x0A02_0001, 2));
        assert_eq!(host.tx_pending(), 2);
        let mut out = Vec::new();
        assert_eq!(tor.drain_into(&mut out), 2);
        assert_eq!(out[0].payload, 1);
        assert_eq!(out[1].payload, 2);
        assert_eq!(tor.pending_from_host(), 0);

        tor.deliver(frame(0x0A01_0001, 3));
        assert_eq!(host.rx_pending(), 1);
        assert_eq!(host.recv().unwrap().payload, 3);
        assert!(host.recv().is_none());
    }

    /// The two directions are independent queues: draining one never
    /// disturbs the other.
    #[test]
    fn directions_are_independent() {
        let (mut host, mut tor) = uplink_pair::<u32>(0);
        host.send(frame(9, 1));
        tor.deliver(frame(1, 2));
        assert_eq!(host.recv().unwrap().payload, 2);
        let mut out = Vec::new();
        assert_eq!(tor.drain_into(&mut out), 1);
        assert_eq!(out[0].payload, 1);
    }
}
