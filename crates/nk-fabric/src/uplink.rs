//! The host↔ToR uplink trunk: one [`Port`], with a host end and a ToR end.
//!
//! A clustered host's switch and the top-of-rack switch share one
//! mutex-backed burst [`Port`], exactly as a vNIC and its switch do. In a
//! sharded cluster the host end lives on whichever thread polls the host's
//! shard and the ToR end on the caller's thread, and the round barrier
//! orders every hand-off between them: the host sends while the units poll,
//! the ToR drains and delivers in the hub with every helper parked, and the
//! host takes those deliveries in its next round. No datapath lock is ever
//! contended. It is still a blocking `lock()`, so a caller that does cross
//! the phases (nkbench's two-thread drive) is slower, never wrong.
//!
//! The ToR drains every trunk at the round barrier in route order — host
//! trunks sort by prefix, i.e. ascending `HostId` — which is what keeps
//! cross-shard frame merging deterministic for any thread count.

use crate::port::{Frame, Port};
use std::collections::VecDeque;

/// The host-switch side of an uplink trunk: frames with no local
/// destination leave through it, ToR deliveries arrive through it. Owned by
/// exactly one host (one shard), so it is not `Clone`.
pub struct HostUplink<P>(Port<P>);

/// The ToR side of a trunk made by [`uplink_pair`]. A [`crate::TorSwitch`]
/// keeps the port itself; this handle is for driving a bare trunk.
pub struct TorUplink<P>(pub(crate) Port<P>);

/// Create the two ends of one uplink trunk for the address block at
/// `prefix`: both share one [`Port`].
pub fn uplink_pair<P>(prefix: u32) -> (HostUplink<P>, TorUplink<P>) {
    let port = Port::new(prefix);
    (HostUplink(port.clone()), TorUplink(port))
}

impl<P> HostUplink<P> {
    /// Queue a frame towards the ToR.
    pub fn send(&mut self, frame: Frame<P>) {
        self.0.send(frame);
    }

    /// Queue a whole burst towards the ToR under one lock, leaving `burst`
    /// empty.
    pub fn send_burst(&mut self, burst: &mut Vec<Frame<P>>) {
        self.0.send_burst(burst);
    }

    /// Take one frame the ToR delivered, if any.
    pub fn recv(&mut self) -> Option<Frame<P>> {
        self.0.recv()
    }

    /// Take every frame the ToR delivered under one lock, appending to
    /// `into` (see [`Port::recv_burst`]).
    pub fn recv_burst(&mut self, into: &mut VecDeque<Frame<P>>) {
        self.0.recv_burst(into);
    }
}

impl<P> TorUplink<P> {
    /// Drain every frame the host sent, appending to `out`; returns how
    /// many were drained.
    pub fn drain_into(&mut self, out: &mut Vec<Frame<P>>) -> usize {
        self.0.drain_tx_into(out)
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

    fn deliver(tor: &TorUplink<u32>, frames: impl IntoIterator<Item = Frame<u32>>) {
        tor.0.deliver_burst(|rx| rx.extend(frames));
    }

    #[test]
    fn frames_flow_both_directions_in_order() {
        let (mut host, mut tor) = uplink_pair::<u32>(0x0A01_0000);
        host.send(frame(0x0A02_0001, 1));
        host.send_burst(&mut vec![frame(0x0A02_0001, 2), frame(0x0A02_0001, 3)]);
        let mut out = Vec::new();
        assert_eq!(tor.drain_into(&mut out), 3);
        assert_eq!(out.iter().map(|f| f.payload).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(tor.drain_into(&mut out), 0);

        deliver(&tor, [frame(0x0A01_0001, 4), frame(0x0A01_0001, 5)]);
        assert_eq!(host.recv().unwrap().payload, 4);
        let mut rx = VecDeque::new();
        host.recv_burst(&mut rx);
        assert_eq!(rx.pop_front().unwrap().payload, 5);
        assert!(host.recv().is_none());
    }

    /// The two directions are independent queues: draining one never
    /// disturbs the other.
    #[test]
    fn directions_are_independent() {
        let (mut host, mut tor) = uplink_pair::<u32>(0);
        host.send(frame(9, 1));
        deliver(&tor, [frame(1, 2)]);
        assert_eq!(host.recv().unwrap().payload, 2);
        let mut out = Vec::new();
        assert_eq!(tor.drain_into(&mut out), 1);
        assert_eq!(out[0].payload, 1);
    }

    /// The trunk is a cross-thread edge: one thread sends N frames, singly
    /// and in bursts, while another drains the ToR side concurrently. Every
    /// frame arrives exactly once, in send order.
    #[test]
    fn a_concurrent_sender_and_drainer_see_every_frame_once_in_order() {
        const N: u32 = 50_000;
        let (mut host, mut tor) = uplink_pair::<u32>(0);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut tag = 0;
                let mut burst = Vec::new();
                while tag < N {
                    // Alternate a single frame with a burst of up to 7.
                    host.send(frame(2, tag));
                    tag += 1;
                    burst.extend((tag..N.min(tag + 7)).map(|t| frame(2, t)));
                    tag += burst.len() as u32;
                    host.send_burst(&mut burst);
                }
            });
            let mut got = Vec::with_capacity(N as usize);
            while got.len() < N as usize {
                if tor.drain_into(&mut got) == 0 {
                    std::thread::yield_now();
                }
            }
            assert!(got.iter().map(|f| f.payload).eq(0..N));
        });
    }
}
