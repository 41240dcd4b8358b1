//! Queue sets: the four lockless queues connecting one vCPU to CoreEngine.
//!
//! Each queue set has "a send queue and receive queue for operations with
//! data transfer (e.g. `send()`), and a job queue and completion queue for
//! control operations without data transfer (e.g. `setsockopt()`)"
//! (paper §4, Figure 5). Requests flow on the job/send queues, completions
//! and data events flow back on the completion/receive queues; an NQE takes
//! the data queue of its direction exactly when its op carries payload
//! (§4.2).
//!
//! A queue set is created as a pair of ends:
//!
//! * the [`RequesterEnd`] pushes requests and pops completions — held by
//!   GuestLib for VM-side devices, and by CoreEngine for NSM-side devices;
//! * the [`ResponderEnd`] pops requests and pushes completions — held by
//!   CoreEngine for VM-side devices, and by ServiceLib for NSM-side devices.
//!
//! A full ring never drops a response: the [`ResponderEnd`] parks it in
//! its own FIFO, behind anything parked before it, and moves it on as the
//! requester drains its rings. While anything is parked, no fresh request
//! is popped, so the requester's own request ring is the backpressure and
//! the park is bounded by work it asked for: completions of requests
//! already popped, plus the events its receive credit and accept backlog
//! allow.
//!
//! Whoever holds both ends of a set — the host that polls them — calls
//! [`rewind_set`] when it goes quiet, so each empty ring past its first
//! page starts over at slot 0 and a set's resident memory follows its
//! traffic, not its capacity.

use crate::spsc::{self, channel, Consumer, Producer};
use nk_types::{NkError, NkResult, Nqe, OpType};
use std::collections::VecDeque;

/// The end of a queue set that issues requests and receives completions.
pub struct RequesterEnd {
    job: Producer<Nqe>,
    send: Producer<Nqe>,
    completion: Consumer<Nqe>,
    receive: Consumer<Nqe>,
}

/// The end of a queue set that executes requests and produces completions.
pub struct ResponderEnd {
    job: Consumer<Nqe>,
    send: Consumer<Nqe>,
    completion: Producer<Nqe>,
    receive: Producer<Nqe>,
    /// Responses waiting for room on their ring, oldest first.
    parked: VecDeque<Nqe>,
}

/// Create one queue set: four SPSC rings of `capacity` NQEs each, returned as
/// a connected (requester, responder) pair.
pub fn queue_set_pair(capacity: usize) -> (RequesterEnd, ResponderEnd) {
    let (job_tx, job_rx) = channel(capacity);
    let (send_tx, send_rx) = channel(capacity);
    let (comp_tx, comp_rx) = channel(capacity);
    let (recv_tx, recv_rx) = channel(capacity);
    (
        RequesterEnd {
            job: job_tx,
            send: send_tx,
            completion: comp_rx,
            receive: recv_rx,
        },
        ResponderEnd {
            job: job_rx,
            send: send_rx,
            completion: comp_tx,
            receive: recv_tx,
            parked: VecDeque::new(),
        },
    )
}

/// Slots of NQEs in one 4-KiB page. A ring whose producer has not written
/// past them has made no more of its storage resident than a rewind would
/// leave it, so [`rewind_set`] leaves it alone.
pub const PAGE_SLOTS: usize = 4096 / std::mem::size_of::<Nqe>();

/// Start every empty ring of one queue set that has written past its first
/// page of slots ([`PAGE_SLOTS`]) over at slot 0 ([`spsc::rewind`]); a ring
/// that holds anything is left as it is, and so is one still within its
/// first page: rewinding it frees no page, and restarting every ring after
/// every quiet round cost `bulk` ≈ 1 % of its speed. `BadConfig` when a
/// ring past its first page has ends of two different rings.
pub fn rewind_set(requester: &mut RequesterEnd, responder: &mut ResponderEnd) -> NkResult<()> {
    fn past_first_page(tx: &mut Producer<Nqe>, rx: &mut Consumer<Nqe>) -> NkResult<()> {
        if tx.written() < PAGE_SLOTS {
            return Ok(());
        }
        spsc::rewind(tx, rx)
    }
    for rewound in [
        past_first_page(&mut requester.job, &mut responder.job),
        past_first_page(&mut requester.send, &mut responder.send),
        past_first_page(&mut responder.completion, &mut requester.completion),
        past_first_page(&mut responder.receive, &mut requester.receive),
    ] {
        match rewound {
            Ok(()) | Err(NkError::InvalidState) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl RequesterEnd {
    /// Submit a request NQE on the queue implied by its op type. A
    /// `Shutdown` or a `Close` rides the send queue, behind the `Send`s
    /// before it: the job queue drains first, and would end the stream
    /// ahead of them.
    pub fn submit(&mut self, nqe: Nqe) -> NkResult<()> {
        debug_assert!(nqe.op.is_request(), "requester submitted a completion");
        let ends_stream = matches!(nqe.op, OpType::Shutdown | OpType::Close);
        let q = if nqe.op.carries_data() || ends_stream {
            &mut self.send
        } else {
            &mut self.job
        };
        q.push(nqe).map_err(|_| NkError::QueueFull)
    }

    /// Pop up to `max` NQEs from the completion queue followed by the receive
    /// queue; returns how many were popped.
    pub fn pop_responses(&mut self, out: &mut Vec<Nqe>, max: usize) -> usize {
        let n = self.completion.pop_batch(out, max);
        n + self.receive.pop_batch(out, max - n)
    }

    /// The furthest write index of the two rings this end pushes on
    /// ([`Producer::written`]).
    pub fn written(&self) -> usize {
        self.job.written().max(self.send.written())
    }
}

impl ResponderEnd {
    /// Pop up to `max` request NQEs, draining the job queue before the send
    /// queue; returns how many were popped. Parked responses are flushed
    /// first, and while any is still parked no request is handed out.
    pub fn pop_requests(&mut self, out: &mut Vec<Nqe>, max: usize) -> usize {
        self.flush();
        if !self.parked.is_empty() {
            return 0;
        }
        let n = self.job.pop_batch(out, max);
        n + self.send.pop_batch(out, max - n)
    }

    /// Push a completion or data-event NQE on the queue implied by its op
    /// type, behind any parked one; a full ring parks it. Always `Ok`.
    #[inline]
    pub fn respond(&mut self, nqe: Nqe) -> NkResult<()> {
        debug_assert!(nqe.op.is_completion(), "responder pushed a request");
        if !self.parked.is_empty() || self.ring(nqe).push(nqe).is_err() {
            self.park(nqe);
        }
        Ok(())
    }

    /// `respond`'s slow path, out of line: park behind the rest, then flush.
    #[cold]
    fn park(&mut self, nqe: Nqe) {
        self.parked.push_back(nqe);
        self.flush();
    }

    /// Move parked NQEs onto their rings, oldest first, until one does not
    /// fit; returns how many moved.
    pub fn flush(&mut self) -> usize {
        let parked = self.parked.len();
        while let Some(&nqe) = self.parked.front() {
            if self.ring(nqe).push(nqe).is_err() {
                break;
            }
            self.parked.pop_front();
        }
        parked - self.parked.len()
    }

    fn ring(&mut self, nqe: Nqe) -> &mut Producer<Nqe> {
        if nqe.op.carries_data() {
            &mut self.receive
        } else {
            &mut self.completion
        }
    }

    /// Responses parked behind a full ring.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// The furthest write index of the two rings this end pushes on
    /// ([`Producer::written`]).
    pub fn written(&self) -> usize {
        self.completion.written().max(self.receive.written())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_types::{DataHandle, OpResult, OpType, QueueSetId, SocketId, VmId};

    fn req(op: OpType) -> Nqe {
        req_on(op, 3)
    }

    fn req_on(op: OpType, sock: u32) -> Nqe {
        Nqe::new(op, VmId(1), QueueSetId(0), SocketId(sock))
    }

    #[test]
    fn requests_route_to_job_and_send_queues() {
        let (mut requester, mut responder) = queue_set_pair(8);
        requester
            .submit(req(OpType::Send).with_data(DataHandle::from_offset(0), 64))
            .unwrap();
        requester.submit(req(OpType::Connect)).unwrap();
        requester.submit(req(OpType::Close)).unwrap();
        // Job queue drains before the send queue in pop_requests, so the
        // Connect submitted second comes out first; the Close stays behind
        // the Send.
        let mut out = Vec::new();
        assert_eq!(responder.pop_requests(&mut out, 16), 3);
        let ops: Vec<OpType> = out.iter().map(|nqe| nqe.op).collect();
        assert_eq!(ops, [OpType::Connect, OpType::Send, OpType::Close]);
        assert_eq!(
            responder.pop_requests(&mut out, 16),
            0,
            "both queues drained"
        );
    }

    /// Completions and data events travel on rings of their own: at
    /// capacity 1 one of each fits without parking, and the completion
    /// comes out first although it was pushed second.
    #[test]
    fn completions_route_to_completion_and_receive_queues() {
        let (mut requester, mut responder) = queue_set_pair(1);
        let comp = Nqe::completion_for(&req(OpType::Connect), OpResult::Ok, 0).unwrap();
        let data_event = Nqe::new(OpType::DataReceived, VmId(1), QueueSetId(0), SocketId(3))
            .with_data(DataHandle::from_offset(4096), 512);
        responder.respond(data_event).unwrap();
        responder.respond(comp).unwrap();
        assert_eq!(responder.parked(), 0, "each found its own ring empty");
        let mut out = Vec::new();
        assert_eq!(requester.pop_responses(&mut out, 1), 1);
        assert_eq!(out[0].op, OpType::ConnectComplete);
        assert_eq!(out[0].result(), OpResult::Ok);
        assert_eq!(requester.pop_responses(&mut out, 1), 1);
        assert_eq!(out[1].op, OpType::DataReceived);
        assert_eq!(out[1].size, 512);
    }

    #[test]
    fn pop_responses_orders_completions_before_data() {
        let (mut requester, mut responder) = queue_set_pair(8);
        let comp = Nqe::completion_for(&req(OpType::Send), OpResult::Ok, 0).unwrap();
        let data = Nqe::new(OpType::DataReceived, VmId(1), QueueSetId(0), SocketId(3))
            .with_data(DataHandle::from_offset(0), 100);
        responder.respond(data).unwrap();
        responder.respond(comp).unwrap();
        let mut out = Vec::new();
        assert_eq!(requester.pop_responses(&mut out, 10), 2);
        assert_eq!(out[0].op, OpType::SendComplete);
        assert_eq!(out[1].op, OpType::DataReceived);
        assert_eq!(
            requester.pop_responses(&mut out, 10),
            0,
            "both queues drained"
        );
    }

    #[test]
    fn queue_full_is_reported() {
        let (mut requester, _responder) = queue_set_pair(2);
        requester.submit(req(OpType::Connect)).unwrap();
        requester.submit(req(OpType::Listen)).unwrap();
        assert_eq!(
            requester.submit(req(OpType::Accept)),
            Err(NkError::QueueFull)
        );
    }

    /// A full ring parks a response instead of refusing it; a later
    /// response queues behind it even when its own ring has room, and no
    /// request is handed out until the park is empty.
    #[test]
    fn a_full_ring_parks_in_order_and_holds_back_requests() {
        let (mut requester, mut responder) = queue_set_pair(1);
        let done = |sock| Nqe::completion_for(&req_on(OpType::Close, sock), OpResult::Ok, 0);
        let data = Nqe::new(OpType::DataReceived, VmId(1), QueueSetId(0), SocketId(9));
        responder.respond(done(1).unwrap()).unwrap();
        responder.respond(done(2).unwrap()).unwrap();
        responder.respond(data).unwrap();
        assert_eq!(
            responder.parked(),
            2,
            "the data event waits behind socket 2"
        );
        requester.submit(req(OpType::Connect)).unwrap();
        let mut reqs = Vec::new();
        assert_eq!(
            responder.pop_requests(&mut reqs, 8),
            0,
            "parked: no requests"
        );
        assert_eq!(responder.flush(), 0, "the completion ring is still full");

        let mut out = Vec::new();
        requester.pop_responses(&mut out, 8);
        assert_eq!(
            responder.pop_requests(&mut reqs, 8),
            1,
            "flushed, then popped"
        );
        assert_eq!(responder.parked(), 0);
        requester.pop_responses(&mut out, 8);
        let socks: Vec<u32> = out.iter().map(|n| n.socket.raw()).collect();
        assert_eq!(socks, vec![1, 2, 9]);
    }

    /// A set's rewind starts each empty ring that has left its first page
    /// over at slot 0, and leaves one that holds anything or is still
    /// within its first page; two ends of different sets are refused.
    #[test]
    fn rewind_set_moves_only_empty_rings_past_their_first_page() {
        let (mut requester, mut responder) = queue_set_pair(2 * PAGE_SLOTS);
        let (mut other_req, mut other_resp) = queue_set_pair(2 * PAGE_SLOTS);
        let done = Nqe::completion_for(&req(OpType::Connect), OpResult::Ok, 0).unwrap();
        // A page through each job ring and into one completion ring, left
        // unread, and three NQEs through one send ring.
        for _ in 0..PAGE_SLOTS {
            requester.submit(req(OpType::Connect)).unwrap();
            other_req.submit(req(OpType::Connect)).unwrap();
            responder.respond(done).unwrap();
        }
        for _ in 0..3 {
            requester.submit(req(OpType::Close)).unwrap();
        }
        let mut out = Vec::new();
        responder.pop_requests(&mut out, 4 * PAGE_SLOTS);
        other_resp.pop_requests(&mut out, 4 * PAGE_SLOTS);
        assert_eq!(out.len(), 2 * PAGE_SLOTS + 3);
        assert_eq!(
            rewind_set(&mut requester, &mut other_resp),
            Err(NkError::BadConfig)
        );
        assert_eq!(requester.written(), PAGE_SLOTS);
        assert_eq!(rewind_set(&mut requester, &mut responder), Ok(()));
        assert_eq!(requester.written(), 3, "the send ring is in its first page");
        assert_eq!(
            responder.written(),
            PAGE_SLOTS,
            "the completions are unread"
        );
        out.clear();
        assert_eq!(
            requester.pop_responses(&mut out, 4 * PAGE_SLOTS),
            PAGE_SLOTS
        );
        assert_eq!(rewind_set(&mut requester, &mut responder), Ok(()));
        assert_eq!(responder.written(), 0);
        requester.submit(req(OpType::Listen)).unwrap();
        out.clear();
        assert_eq!(responder.pop_requests(&mut out, 8), 1);
        assert_eq!(out[0].op, OpType::Listen);
        assert_eq!(requester.written(), 3);
    }

    /// Seeded model check of the parking end: random interleavings of
    /// `respond`, `flush`, `pop_responses` and `pop_requests` on queue sets
    /// of capacity 1–4, against a `VecDeque` model of the two rings and
    /// the park. Every response is popped exactly once and in order, the
    /// park holds exactly the model's excess over the rings, and
    /// `pop_requests` yields nothing while a response is parked.
    #[test]
    fn parking_end_matches_a_vecdeque_model() {
        for seed in 1..=200u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = |below: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % below
            };
            let cap = 1 + next(4) as usize;
            let (mut requester, mut responder) = queue_set_pair(cap);
            // The model: what each ring holds, and the park, by NQE id.
            let mut rings: [VecDeque<u32>; 2] = Default::default();
            let mut park: VecDeque<(usize, u32)> = VecDeque::new();
            let model_flush = |rings: &mut [VecDeque<u32>; 2],
                               park: &mut VecDeque<(usize, u32)>| {
                while let Some(&(k, id)) = park.front() {
                    if rings[k].len() == cap {
                        break;
                    }
                    rings[k].push_back(id);
                    park.pop_front();
                }
            };
            let (mut sent, mut kinds, mut popped) = (0u32, Vec::new(), Vec::new());
            let mut requests = 0u32;
            for _ in 0..300 {
                match next(6) {
                    0 | 1 => {
                        let k = next(2) as usize;
                        let op = [OpType::SendComplete, OpType::DataReceived][k];
                        let nqe = Nqe::new(op, VmId(1), QueueSetId(0), SocketId(sent));
                        responder.respond(nqe).unwrap();
                        park.push_back((k, sent));
                        model_flush(&mut rings, &mut park);
                        kinds.push(k);
                        sent += 1;
                    }
                    2 => {
                        let before = park.len();
                        model_flush(&mut rings, &mut park);
                        assert_eq!(responder.flush(), before - park.len(), "seed {seed}");
                    }
                    3 => {
                        let max = 1 + next(2 * cap as u64) as usize;
                        let mut out = Vec::new();
                        let n = requester.pop_responses(&mut out, max);
                        let from_c = rings[0].len().min(max);
                        let mut want: Vec<u32> = rings[0].drain(..from_c).collect();
                        let from_r = rings[1].len().min(max - from_c);
                        want.extend(rings[1].drain(..from_r));
                        let got: Vec<u32> = out.iter().map(|n| n.socket.raw()).collect();
                        assert_eq!((n, &got), (want.len(), &want), "seed {seed}");
                        popped.extend(got);
                    }
                    _ => {
                        if requests < cap as u32 {
                            requester.submit(req(OpType::Connect)).unwrap();
                            requests += 1;
                        }
                        model_flush(&mut rings, &mut park);
                        let mut out = Vec::new();
                        let n = responder.pop_requests(&mut out, 8);
                        let want = if park.is_empty() { requests } else { 0 };
                        assert_eq!(n as u32, want, "seed {seed}: requests with {park:?} parked");
                        requests -= n as u32;
                    }
                }
                assert_eq!(responder.parked(), park.len(), "seed {seed}");
            }
            // Drain everything: each response exactly once, and each ring's
            // responses in the order they were pushed.
            loop {
                responder.flush();
                let mut out = Vec::new();
                if requester.pop_responses(&mut out, usize::MAX) == 0 {
                    break;
                }
                popped.extend(out.iter().map(|n| n.socket.raw()));
            }
            assert_eq!(responder.parked(), 0);
            for k in 0..2 {
                let ring = popped.iter().filter(|&&id| kinds[id as usize] == k);
                let ids: Vec<u32> = ring.copied().collect();
                assert!(
                    ids.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed}: reordered"
                );
            }
            popped.sort_unstable();
            assert_eq!(
                popped,
                (0..sent).collect::<Vec<_>>(),
                "seed {seed}: lost or doubled"
            );
        }
    }
}
