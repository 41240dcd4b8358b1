//! Queue sets: the four lockless queues connecting one vCPU to CoreEngine.
//!
//! Each queue set has "a send queue and receive queue for operations with
//! data transfer (e.g. `send()`), and a job queue and completion queue for
//! control operations without data transfer (e.g. `setsockopt()`)"
//! (paper §4, Figure 5). Requests flow on the job/send queues, completions
//! and data events flow back on the completion/receive queues.
//!
//! A queue set is created as a pair of ends:
//!
//! * the [`RequesterEnd`] pushes requests and pops completions — held by
//!   GuestLib for VM-side devices, and by CoreEngine for NSM-side devices;
//! * the [`ResponderEnd`] pops requests and pushes completions — held by
//!   CoreEngine for VM-side devices, and by ServiceLib for NSM-side devices.

use crate::spsc::{channel, Consumer, Producer};
use nk_types::{NkError, NkResult, Nqe, OpType};

/// Which of the four queues of a queue set an NQE travels on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueKind {
    /// Control operations issued by the requester (no payload).
    Job,
    /// Execution results of control operations.
    Completion,
    /// Operations that carry payload (e.g. `send()`).
    Send,
    /// Events announcing newly received payload.
    Receive,
}

impl QueueKind {
    /// The queue a *request/event* NQE of type `op` must travel on, following
    /// the classification of §4.2: data-carrying operations use the
    /// send/receive queues, everything else uses job/completion.
    pub fn for_op(op: OpType) -> QueueKind {
        match (op.is_request(), op.carries_data()) {
            (true, true) => QueueKind::Send,
            (true, false) => QueueKind::Job,
            (false, true) => QueueKind::Receive,
            (false, false) => QueueKind::Completion,
        }
    }
}

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
        },
    )
}

impl RequesterEnd {
    /// Submit a request NQE on the queue implied by its op type.
    pub fn submit(&mut self, nqe: Nqe) -> NkResult<()> {
        debug_assert!(nqe.op.is_request(), "requester submitted a completion");
        let q = match QueueKind::for_op(nqe.op) {
            QueueKind::Send => &mut self.send,
            _ => &mut self.job,
        };
        q.push(nqe).map_err(|_| NkError::QueueFull)
    }

    /// Pop one completion (control) NQE.
    pub fn pop_completion(&mut self) -> Option<Nqe> {
        self.completion.pop()
    }

    /// Pop one receive (data event) NQE.
    pub fn pop_receive(&mut self) -> Option<Nqe> {
        self.receive.pop()
    }

    /// Pop up to `max` NQEs from the completion queue followed by the receive
    /// queue; returns how many were popped.
    pub fn pop_responses(&mut self, out: &mut Vec<Nqe>, max: usize) -> usize {
        let n = self.completion.pop_batch(out, max);
        n + self.receive.pop_batch(out, max - n)
    }
}

impl ResponderEnd {
    /// Pop up to `max` request NQEs, draining the job queue before the send
    /// queue; returns how many were popped.
    pub fn pop_requests(&mut self, out: &mut Vec<Nqe>, max: usize) -> usize {
        let n = self.job.pop_batch(out, max);
        n + self.send.pop_batch(out, max - n)
    }

    /// Push a completion or data-event NQE on the queue implied by its op
    /// type.
    pub fn respond(&mut self, nqe: Nqe) -> NkResult<()> {
        debug_assert!(nqe.op.is_completion(), "responder pushed a request");
        let q = match QueueKind::for_op(nqe.op) {
            QueueKind::Receive => &mut self.receive,
            _ => &mut self.completion,
        };
        q.push(nqe).map_err(|_| NkError::QueueFull)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_types::{DataHandle, OpResult, QueueSetId, SocketId, VmId};

    fn req(op: OpType) -> Nqe {
        Nqe::new(op, VmId(1), QueueSetId(0), SocketId(3))
    }

    #[test]
    fn op_to_queue_classification() {
        assert_eq!(QueueKind::for_op(OpType::Send), QueueKind::Send);
        assert_eq!(QueueKind::for_op(OpType::Connect), QueueKind::Job);
        assert_eq!(QueueKind::for_op(OpType::DataReceived), QueueKind::Receive);
        assert_eq!(
            QueueKind::for_op(OpType::SendComplete),
            QueueKind::Completion
        );
    }

    #[test]
    fn requests_route_to_job_and_send_queues() {
        let (mut requester, mut responder) = queue_set_pair(8);
        requester.submit(req(OpType::Connect)).unwrap();
        requester
            .submit(req(OpType::Send).with_data(DataHandle::from_offset(0), 64))
            .unwrap();
        // Job queue drains before the send queue in pop_requests.
        let mut out = Vec::new();
        assert_eq!(responder.pop_requests(&mut out, 16), 2);
        assert_eq!(out[0].op, OpType::Connect);
        assert_eq!(out[1].op, OpType::Send);
        assert_eq!(
            responder.pop_requests(&mut out, 16),
            0,
            "both queues drained"
        );
    }

    #[test]
    fn completions_route_to_completion_and_receive_queues() {
        let (mut requester, mut responder) = queue_set_pair(8);
        let comp = Nqe::completion_for(&req(OpType::Connect), OpResult::Ok, 0).unwrap();
        responder.respond(comp).unwrap();
        assert_eq!(requester.pop_receive(), None);
        let got = requester.pop_completion().unwrap();
        assert_eq!(got.op, OpType::ConnectComplete);
        assert_eq!(got.result(), OpResult::Ok);
    }

    #[test]
    fn data_events_arrive_on_receive_queue() {
        let (mut requester, mut responder) = queue_set_pair(8);
        let data_event = Nqe::new(OpType::DataReceived, VmId(1), QueueSetId(0), SocketId(3))
            .with_data(DataHandle::from_offset(4096), 512);
        responder.respond(data_event).unwrap();
        assert_eq!(requester.pop_completion(), None);
        let got = requester.pop_receive().unwrap();
        assert_eq!(got.op, OpType::DataReceived);
        assert_eq!(got.size, 512);
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
        requester.submit(req(OpType::Close)).unwrap();
        assert_eq!(
            requester.submit(req(OpType::Accept)),
            Err(NkError::QueueFull)
        );
    }
}
