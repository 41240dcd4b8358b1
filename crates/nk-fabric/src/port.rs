//! Ports: vNIC attachment points on the virtual switch, and the host↔ToR
//! trunks.
//!
//! A port is two frame queues shared by its handles: the endpoint sends
//! into one and receives from the other, the switch drains the first and
//! delivers into the second. A crossed handle (`Port::crossed`) swaps the
//! two, so a second switch can take the endpoint's place — which is how a
//! clustered host's switch holds its ToR trunk as its default route.
//!
//! A trunk's host end is used while the units of a sharded cluster poll,
//! its ToR end in the hub with every helper parked, so the round barrier
//! orders every hand-off and no lock is contended. The locks still block:
//! a caller that crosses the phases (nkbench's two-thread drive) is slower,
//! never wrong.

#![expect(
    clippy::disallowed_types,
    reason = "cross-shard-locks: a vNIC port's two handles (endpoint + switch) \
              are always polled by the same host, and the hub drains switch \
              sides serially at the round barrier. A host uplink's port is the \
              cross-shard edge: the host end is used while units poll, the ToR \
              end in the hub with every helper parked, so the barrier orders \
              every lock and none is contended. The datapath takes one lock \
              per burst, not per frame."
)]

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// A frame travelling through the fabric.
///
/// The payload type is generic so the fabric can carry the TCP segments of
/// the network stack (or anything else) without depending on it. `wire_bytes`
/// is used for rate limiting and throughput accounting and should include
/// header overhead.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame<P> {
    /// Source address (the IP of the sending endpoint).
    pub src: u32,
    /// Destination address used by the switch to pick the output port.
    pub dst: u32,
    /// Hash identifying the flow, used by RSS to pick a NIC queue.
    pub flow_hash: u64,
    /// Size of the frame on the wire, in bytes.
    pub wire_bytes: usize,
    /// Opaque payload.
    pub payload: P,
}

type Queue<P> = Mutex<VecDeque<Frame<P>>>;

/// A bidirectional port. Cloning yields another handle to the same port (the
/// switch keeps one clone, the endpoint keeps the other).
pub struct Port<P> {
    queues: Arc<[Queue<P>; 2]>,
    addr: u32,
    /// Which of `queues` this handle sends into; it receives from the other.
    tx: usize,
}

impl<P> Clone for Port<P> {
    fn clone(&self) -> Self {
        Port {
            queues: Arc::clone(&self.queues),
            addr: self.addr,
            tx: self.tx,
        }
    }
}

impl<P> Port<P> {
    /// Create a port for the endpoint with address `addr`.
    pub fn new(addr: u32) -> Self {
        Port {
            queues: Arc::new([Mutex::default(), Mutex::default()]),
            addr,
            tx: 0,
        }
    }

    /// A handle to the same port with the directions swapped: what this
    /// handle receives, the crossed one sends, and the other way round.
    pub(crate) fn crossed(&self) -> Port<P> {
        Port {
            tx: 1 - self.tx,
            ..self.clone()
        }
    }

    /// Address of the endpoint attached to this port.
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// True when both handles are the same port.
    pub(crate) fn same_port(&self, other: &Port<P>) -> bool {
        Arc::ptr_eq(&self.queues, &other.queues)
    }

    /// The queue this handle sends into, locked.
    fn tx(&self) -> MutexGuard<'_, VecDeque<Frame<P>>> {
        self.queues[self.tx].lock().unwrap()
    }

    /// The queue this handle receives from, locked.
    fn rx(&self) -> MutexGuard<'_, VecDeque<Frame<P>>> {
        self.queues[1 - self.tx].lock().unwrap()
    }

    /// Endpoint side: queue a frame for transmission.
    pub fn send(&self, frame: Frame<P>) {
        self.tx().push_back(frame);
    }

    /// Endpoint side: queue a whole burst for transmission under one lock,
    /// leaving `burst` empty. Into an empty queue the burst's buffer trades
    /// places with the queue's, so no frame moves.
    pub fn send_burst(&self, burst: &mut Vec<Frame<P>>) {
        let mut q = self.tx();
        if q.is_empty() {
            let spare = Vec::from(std::mem::take(&mut *q));
            *q = std::mem::replace(burst, spare).into();
        } else {
            q.extend(burst.drain(..));
        }
    }

    /// Endpoint side: take one delivered frame, if any.
    pub fn recv(&self) -> Option<Frame<P>> {
        self.rx().pop_front()
    }

    /// Endpoint side: take every delivered frame under one lock, appending
    /// to `into`. An empty `into` trades places with the port's queue: an
    /// endpoint that consumes all it takes moves no frame (measurably
    /// faster on `bulk` than appending ~700 frames per tick).
    pub fn recv_burst(&self, into: &mut VecDeque<Frame<P>>) {
        let mut q = self.rx();
        if into.is_empty() {
            std::mem::swap(&mut *q, into);
        } else {
            into.append(&mut q);
        }
    }

    /// Endpoint side: number of delivered frames waiting.
    pub fn rx_pending(&self) -> usize {
        self.rx().len()
    }

    /// Switch side: drain every queued frame, appending them to `out` (no
    /// per-call allocation; an empty `out` trades buffers with the queue).
    /// Returns how many were drained.
    pub fn drain_tx_into(&self, out: &mut Vec<Frame<P>>) -> usize {
        let mut q = self.tx();
        let n = q.len();
        if out.is_empty() {
            let spare = VecDeque::from(std::mem::take(out));
            *out = std::mem::replace(&mut *q, spare).into();
        } else {
            out.extend(q.drain(..));
        }
        n
    }

    /// Switch side: number of frames awaiting pickup.
    pub fn tx_pending(&self) -> usize {
        self.tx().len()
    }

    /// Switch side: deliver a burst to the endpoint under one lock: `fill`
    /// appends it to the endpoint's receive queue.
    pub fn deliver_burst<R>(&self, fill: impl FnOnce(&mut VecDeque<Frame<P>>) -> R) -> R {
        fill(&mut self.rx())
    }
}

/// Split the run of frames that share the first one's destination off the
/// front of `frames`: a switch resolves the egress once per run, not per
/// frame. The run must be consumed; what is left of it stays in `frames`.
pub(crate) fn next_run<'a, 'b, P>(
    frames: &'a mut std::vec::Drain<'b, Frame<P>>,
) -> Option<(u32, std::iter::Take<&'a mut std::vec::Drain<'b, Frame<P>>>)> {
    let dst = frames.as_slice().first()?.dst;
    let run = frames.as_slice().iter().take_while(|f| f.dst == dst);
    let len = run.count();
    Some((dst, frames.take(len)))
}

/// The host end of a ToR trunk: the host switch's default route rides it
/// ([`crate::VirtualSwitch::set_uplink_filtered`]). Owned by exactly one
/// host (one shard), so it is not `Clone`.
pub struct HostUplink<P>(pub(crate) Port<P>);

/// The ToR end of a trunk made by [`uplink_pair`]. A ToR switch keeps the
/// port itself; this handle is for driving a bare trunk.
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

    /// Take one frame the ToR delivered, if any.
    pub fn recv(&mut self) -> Option<Frame<P>> {
        self.0.recv()
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

    #[test]
    fn send_and_drain() {
        let p: Port<u32> = Port::new(10);
        assert_eq!(p.addr(), 10);
        p.send(frame(2, 1));
        p.send(frame(2, 2));
        assert_eq!(p.tx_pending(), 2);
        let mut drained = vec![frame(2, 0)];
        assert_eq!(p.drain_tx_into(&mut drained), 2);
        assert_eq!(p.tx_pending(), 0);
        let tags: Vec<u32> = drained.iter().map(|f| f.payload).collect();
        assert_eq!(tags, vec![0, 1, 2], "appended, not replaced");
    }

    #[test]
    fn deliver_and_recv_preserve_order() {
        let p: Port<u32> = Port::new(10);
        p.deliver_burst(|rx| rx.extend([frame(10, 7), frame(10, 8)]));
        assert_eq!(p.rx_pending(), 2);
        assert_eq!(p.recv().unwrap().payload, 7);
        assert_eq!(p.recv().unwrap().payload, 8);
        assert!(p.recv().is_none());
    }

    #[test]
    fn clones_share_queues() {
        let endpoint: Port<u32> = Port::new(10);
        let switch_side = endpoint.clone();
        endpoint.send(frame(2, 5));
        assert_eq!(switch_side.drain_tx_into(&mut Vec::new()), 1);
        switch_side.deliver_burst(|rx| rx.push_back(frame(10, 6)));
        assert_eq!(endpoint.recv().unwrap().payload, 6);
    }

    /// A burst sent, delivered and taken in one call each is the same
    /// frames, in the same order, as moving them one at a time — whether
    /// `recv_burst` trades buffers or appends to frames still waiting.
    #[test]
    fn a_burst_equals_the_same_frames_moved_one_at_a_time() {
        let (burst, single): (Port<u32>, Port<u32>) = (Port::new(10), Port::new(10));
        let frames = |from: u32| {
            (from..from + 5)
                .map(|tag| frame(2, tag))
                .collect::<Vec<_>>()
        };
        let (mut wire, mut wire_single) = (Vec::new(), Vec::new());
        let mut taken = VecDeque::new();
        let mut one_by_one = Vec::new();
        for round in 0..4 {
            // Two bursts per round: the second finds the first still queued.
            for from in [round * 10, round * 10 + 5] {
                let mut out = frames(from);
                burst.send_burst(&mut out);
                assert!(out.is_empty(), "the burst is handed over whole");
                frames(from).into_iter().for_each(|f| single.send(f));
            }
            assert_eq!(burst.tx_pending(), 10);
            // Odd rounds drain onto frames the switch still holds.
            let held = wire.len();
            assert_eq!(burst.drain_tx_into(&mut wire), 10);
            assert_eq!(single.drain_tx_into(&mut wire_single), 10);
            assert_eq!((wire.len(), burst.tx_pending()), (held + 10, 0));
            assert_eq!(wire, wire_single);
            if round % 2 == 0 {
                continue;
            }
            burst.deliver_burst(|rx| rx.extend(wire.drain(..)));
            single.deliver_burst(|rx| rx.extend(wire_single.drain(..)));
            assert_eq!(burst.rx_pending(), 20);
            // Round 1 takes into an empty deque, round 3 onto frames the
            // endpoint has not consumed yet.
            burst.recv_burst(&mut taken);
            assert_eq!(burst.rx_pending(), 0);
            one_by_one.extend(std::iter::from_fn(|| single.recv()));
        }
        let sent: Vec<Frame<u32>> = (0..4)
            .flat_map(|round| frames(round * 10).into_iter().chain(frames(round * 10 + 5)))
            .collect();
        assert_eq!(Vec::from(taken), one_by_one);
        assert_eq!(one_by_one, sent);
    }
}
