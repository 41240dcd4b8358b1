//! Ports: vNIC attachment points on the virtual switch.

#![expect(
    clippy::disallowed_types,
    reason = "cross-shard-locks: a port's two handles (endpoint + switch) are \
              always polled by the same lane, and the hub drains switch sides \
              serially at the round barrier; the Mutexes provide interior \
              mutability for the paired handles, never a cross-shard channel. \
              Cross-lane traffic goes over the SPSC `uplink_pair` and \
              `nk_queue::unbounded` only."
)]

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

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

struct Shared<P> {
    /// Frames queued by the endpoint, awaiting pickup by the switch.
    tx: Mutex<VecDeque<Frame<P>>>,
    /// Frames delivered by the switch, awaiting pickup by the endpoint.
    rx: Mutex<VecDeque<Frame<P>>>,
}

/// A bidirectional port. Cloning yields another handle to the same port (the
/// switch keeps one clone, the endpoint keeps the other).
pub struct Port<P> {
    shared: Arc<Shared<P>>,
    addr: u32,
}

impl<P> Clone for Port<P> {
    fn clone(&self) -> Self {
        Port {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
        }
    }
}

impl<P> Port<P> {
    /// Create a port for the endpoint with address `addr`.
    pub fn new(addr: u32) -> Self {
        Port {
            shared: Arc::new(Shared {
                tx: Mutex::new(VecDeque::new()),
                rx: Mutex::new(VecDeque::new()),
            }),
            addr,
        }
    }

    /// Address of the endpoint attached to this port.
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// Endpoint side: queue a frame for transmission.
    pub fn send(&self, frame: Frame<P>) {
        self.shared.tx.lock().unwrap().push_back(frame);
    }

    /// Endpoint side: take one delivered frame, if any.
    pub fn recv(&self) -> Option<Frame<P>> {
        self.shared.rx.lock().unwrap().pop_front()
    }

    /// Endpoint side: number of delivered frames waiting.
    pub fn rx_pending(&self) -> usize {
        self.shared.rx.lock().unwrap().len()
    }

    /// Switch side: drain up to `max` queued frames, appending them to `out`
    /// (no per-call allocation). Returns how many were drained.
    pub fn drain_tx_into(&self, max: usize, out: &mut Vec<Frame<P>>) -> usize {
        let mut q = self.shared.tx.lock().unwrap();
        let n = max.min(q.len());
        out.extend(q.drain(..n));
        n
    }

    /// Switch side: number of frames awaiting pickup.
    pub fn tx_pending(&self) -> usize {
        self.shared.tx.lock().unwrap().len()
    }

    /// Switch side: deliver a frame to the endpoint.
    pub fn deliver(&self, frame: Frame<P>) {
        self.shared.rx.lock().unwrap().push_back(frame);
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
        let mut drained = Vec::new();
        assert_eq!(p.drain_tx_into(1, &mut drained), 1);
        assert_eq!(drained[0].payload, 1);
        assert_eq!(p.tx_pending(), 1);
        assert_eq!(p.drain_tx_into(10, &mut drained), 1);
        assert_eq!(drained.len(), 2, "appended, not replaced");
    }

    #[test]
    fn deliver_and_recv_preserve_order() {
        let p: Port<u32> = Port::new(10);
        p.deliver(frame(10, 7));
        p.deliver(frame(10, 8));
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
        assert_eq!(switch_side.drain_tx_into(10, &mut Vec::new()), 1);
        switch_side.deliver(frame(10, 6));
        assert_eq!(endpoint.recv().unwrap().payload, 6);
    }
}
