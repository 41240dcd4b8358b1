//! Ports: vNIC attachment points on the virtual switch, and the host↔ToR
//! trunks.
//!
//! A port is two frame queues shared by its handles: the endpoint sends
//! into one and receives from the other, the switch drains the first and
//! delivers into the second. A crossed handle (`Port::crossed`) swaps the
//! two, so a second switch can take the endpoint's place — which is how a
//! clustered host's switch holds its ToR trunk as its default route.
//!
//! Each queue publishes its length: every lock hold stores the count it
//! leaves behind (`Release`) before it unlocks, and the two taking calls,
//! [`Port::recv_burst`] and [`Port::drain_tx_into`], read it (`Acquire`)
//! first and return without locking when it is 0. An idle hop — a tick
//! with nothing received, a switch round over a quiet vNIC — costs one
//! atomic load, not a lock; the lock stays for every queue that holds
//! frames.
//!
//! A trunk's host end is used while the units of a sharded cluster poll,
//! its ToR end in the hub with every helper parked, so the round barrier
//! orders every hand-off: a published 0 is exact wherever the cluster reads
//! it, and no lock is contended. A caller that crosses the phases
//! (nkbench's two-thread drive) may read a stale 0, which only leaves the
//! frame for its next poll: slower, never wrong.

#![expect(
    clippy::disallowed_types,
    reason = "cross-shard-locks: a vNIC port's two handles (endpoint + switch) \
              are always polled by the same host, and the hub drains switch \
              sides serially at the round barrier. A host uplink's port is the \
              cross-shard edge: the host end is used while units poll, the ToR \
              end in the hub with every helper parked, so the barrier orders \
              every lock and none is contended. Every hold publishes the \
              queue's length before it unlocks, so within that order a length \
              of 0 read without the lock is exact and an idle queue is never \
              locked; a caller that crosses the phases reads at worst a stale \
              0, which delays a frame to its next poll and never loses one. \
              The datapath takes one lock per non-empty burst, not per frame."
)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// A frame payload that may stand for several wire frames of one size sent
/// back to back: a *train*, such as the full-sized segments a TCP stack
/// sends from one write. The fabric moves a train as one object, but
/// counts, polices and impairs it wire frame by wire frame. A payload is
/// one frame unless its type says otherwise.
pub trait Train: Sized {
    /// Wire frames this payload stands for (at least one).
    #[inline]
    fn frames(&self) -> usize {
        1
    }

    /// Split the first `n` wire frames off (`0 < n < frames()`), as a train
    /// of their own; this one keeps the rest.
    fn split_front(&mut self, n: usize) -> Self {
        unreachable!("a single frame ({n} asked) has nothing to split off")
    }

    /// This payload's wire frames one by one, front first.
    fn into_frames(self) -> impl Iterator<Item = Self> {
        let mut rest = Some(self);
        std::iter::from_fn(move || {
            let train = rest.as_mut()?;
            if train.frames() > 1 {
                Some(train.split_front(1))
            } else {
                rest.take()
            }
        })
    }
}

impl Train for u32 {}
impl Train for u64 {}

/// A frame is as many wire frames as its payload, each `wire_bytes /
/// frames()` long.
impl<P: Train> Train for Frame<P> {
    #[inline]
    fn frames(&self) -> usize {
        self.payload.frames()
    }

    fn split_front(&mut self, n: usize) -> Self {
        let wire_bytes = self.wire_bytes / self.payload.frames() * n;
        self.wire_bytes -= wire_bytes;
        Frame {
            src: self.src,
            dst: self.dst,
            flow_hash: self.flow_hash,
            wire_bytes,
            payload: self.payload.split_front(n),
        }
    }
}

/// One direction of a port: its frames, and their count as the last lock
/// hold left it, readable without the lock.
struct Queue<P> {
    frames: Mutex<VecDeque<Frame<P>>>,
    /// `frames.len()`, stored (`Release`) by [`Queue::with`] as every hold
    /// ends and loaded (`Acquire`) by [`Queue::is_idle`]. It publishes no frame: a reader
    /// that sees more than 0 locks the mutex, which orders the frames.
    len: AtomicUsize,
}

impl<P> Default for Queue<P> {
    fn default() -> Self {
        Queue {
            frames: Mutex::default(),
            len: AtomicUsize::new(0),
        }
    }
}

impl<P> Queue<P> {
    /// Run `f` on the locked frames, then publish their count before the
    /// lock is released: every hold goes through here.
    fn with<R>(&self, f: impl FnOnce(&mut VecDeque<Frame<P>>) -> R) -> R {
        let mut frames = self.frames.lock().expect("no port hold panics");
        let out = f(&mut frames);
        self.len.store(frames.len(), Ordering::Release);
        out
    }

    /// True when the last lock hold left the queue empty: nothing to take.
    fn is_idle(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }
}

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
            queues: Arc::default(),
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

    /// The queue this handle sends into.
    fn tx(&self) -> &Queue<P> {
        &self.queues[self.tx]
    }

    /// The queue this handle receives from.
    fn rx(&self) -> &Queue<P> {
        &self.queues[1 - self.tx]
    }

    /// Endpoint side: queue a frame for transmission.
    pub fn send(&self, frame: Frame<P>) {
        self.tx().with(|q| q.push_back(frame));
    }

    /// Endpoint side: queue a whole burst for transmission under one lock,
    /// leaving `burst` empty. Into an empty queue the burst's buffer trades
    /// places with the queue's, so no frame moves.
    pub fn send_burst(&self, burst: &mut Vec<Frame<P>>) {
        self.tx().with(|q| {
            if q.is_empty() {
                let spare = Vec::from(std::mem::take(q));
                *q = std::mem::replace(burst, spare).into();
            } else {
                q.extend(burst.drain(..));
            }
        });
    }

    /// Endpoint side: take one delivered frame, if any.
    pub fn recv(&self) -> Option<Frame<P>> {
        self.rx().with(VecDeque::pop_front)
    }

    /// Endpoint side: take every delivered frame under one lock, appending
    /// to `into`. An empty `into` trades places with the port's queue: an
    /// endpoint that consumes all it takes moves no frame (measurably
    /// faster on `bulk` than appending ~700 frames per tick). A queue that
    /// published 0 is not locked, and `into` is left as it was.
    pub fn recv_burst(&self, into: &mut VecDeque<Frame<P>>) {
        if self.rx().is_idle() {
            return;
        }
        self.rx().with(|q| {
            if into.is_empty() {
                std::mem::swap(q, into);
            } else {
                into.append(q);
            }
        });
    }

    /// Endpoint side: number of delivered frames waiting, as published.
    #[cfg(test)]
    pub(crate) fn rx_pending(&self) -> usize {
        self.rx().len.load(Ordering::Acquire)
    }

    /// Switch side: drain every queued frame, appending them to `out` (no
    /// per-call allocation; an empty `out` trades buffers with the queue).
    /// Returns how many were drained. A queue that published 0 is not
    /// locked, and `out` is left as it was.
    pub fn drain_tx_into(&self, out: &mut Vec<Frame<P>>) -> usize {
        if self.tx().is_idle() {
            return 0;
        }
        self.tx().with(|q| {
            let n = q.len();
            if out.is_empty() {
                let spare = VecDeque::from(std::mem::take(out));
                *out = std::mem::replace(q, spare).into();
            } else {
                out.extend(q.drain(..));
            }
            n
        })
    }

    /// Switch side: number of frames awaiting pickup, as published.
    #[cfg(test)]
    pub(crate) fn tx_pending(&self) -> usize {
        self.tx().len.load(Ordering::Acquire)
    }

    /// Switch side: deliver a burst to the endpoint under one lock: `fill`
    /// appends it to the endpoint's receive queue.
    pub fn deliver_burst<R>(&self, fill: impl FnOnce(&mut VecDeque<Frame<P>>) -> R) -> R {
        self.rx().with(fill)
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
pub(crate) mod tests {
    use super::*;

    /// Wire frames `first..first + frames`, sent back to back as one train.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub(crate) struct Run {
        pub(crate) first: u32,
        pub(crate) frames: usize,
    }

    impl Train for Run {
        fn frames(&self) -> usize {
            self.frames
        }

        fn split_front(&mut self, n: usize) -> Run {
            let head = Run {
                first: self.first,
                frames: n,
            };
            self.first += n as u32;
            self.frames -= n;
            head
        }
    }

    fn frame(dst: u32, tag: u32) -> Frame<u32> {
        Frame {
            src: 1,
            dst,
            flow_hash: tag as u64,
            wire_bytes: 100,
            payload: tag,
        }
    }

    /// Both of `p`'s queues as `(published, locked)` lengths. The locked
    /// length is read straight from the mutex, not through [`Queue::with`],
    /// which would publish it.
    fn lengths(p: &Port<u32>) -> [(usize, usize); 2] {
        p.queues.each_ref().map(|q| {
            let len = q.len.load(Ordering::Acquire);
            (len, q.frames.lock().unwrap().len())
        })
    }

    /// The length a handle reads without the lock is the queue's length
    /// after every call that changes it, and a call that finds a queue
    /// idle leaves the caller's buffer as it was: it takes no lock, so it
    /// trades no buffer.
    #[test]
    fn the_published_length_is_the_queues_length_after_every_call() {
        let p: Port<u32> = Port::new(10);
        let check = |tx: usize, rx: usize| assert_eq!(lengths(&p), [(tx, tx), (rx, rx)]);
        check(0, 0);
        p.send(frame(2, 1));
        check(1, 0);
        p.send_burst(&mut vec![frame(2, 2), frame(2, 3)]);
        check(3, 0);
        let mut wire = Vec::new();
        assert_eq!(p.drain_tx_into(&mut wire), 3);
        check(0, 0);
        // The queue now holds `wire`'s old buffer, which never grew: an
        // idle drain that traded would hand it back.
        let mut idle = Vec::with_capacity(64);
        idle.push(frame(2, 0));
        idle.clear();
        assert_eq!(p.drain_tx_into(&mut idle), 0);
        assert_eq!(idle.capacity(), 64, "an idle drain trades no buffer");
        p.send_burst(&mut vec![frame(2, 4), frame(2, 5)]);
        check(2, 0);
        p.drain_tx_into(&mut wire);
        check(0, 0);
        p.deliver_burst(|rx| rx.extend(wire.drain(..)));
        check(0, 5);
        assert_eq!(p.recv().map(|f| f.payload), Some(1));
        check(0, 4);
        let mut taken = VecDeque::new();
        p.recv_burst(&mut taken);
        check(0, 0);
        assert_eq!(taken.len(), 4);
        let mut idle = VecDeque::with_capacity(64);
        idle.push_back(frame(10, 9));
        let capacity = idle.capacity();
        p.recv_burst(&mut idle);
        idle.pop_front();
        p.recv_burst(&mut idle);
        assert_eq!(idle.capacity(), capacity, "an idle take trades no buffer");
        assert!(p.recv().is_none());
        check(0, 0);
    }

    /// nkbench's two-thread drive as a test: a host end sends while the
    /// ToR end drains on another thread, reading the published length
    /// without the lock, until every frame has arrived, in order.
    #[test]
    fn a_trunk_crossed_by_two_threads_delivers_every_frame_in_order() {
        const N: u32 = 20_000;
        let (mut host, mut tor) = uplink_pair::<u32>(0x0A01_0000);
        let mut got = Vec::new();
        std::thread::scope(|s| {
            s.spawn(move || (0..N).for_each(|tag| host.send(frame(2, tag))));
            while got.len() < N as usize {
                if tor.drain_into(&mut got) == 0 {
                    std::thread::yield_now();
                }
            }
        });
        assert!(got.iter().map(|f| f.payload).eq(0..N));
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
