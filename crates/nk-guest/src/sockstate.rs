//! Per-socket state kept by GuestLib.

use nk_shmem::BufferBudget;
use nk_types::{DataHandle, NkError, PollEvents, QueueSetId, Recycle, SockAddr, SocketId};
use std::collections::VecDeque;

/// Lifecycle of a NetKernel socket as seen from the guest.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GuestSocketState {
    /// Created; `SocketCreate` sent to the NSM.
    Created,
    /// `bind()` has completed.
    Bound,
    /// `listen()` has completed; the socket accepts connections.
    Listening,
    /// `connect()` issued, waiting for the NSM to report completion.
    Connecting,
    /// Connection established; data may flow.
    Established,
    /// The peer closed its side (EOF pending after buffered data).
    PeerClosed,
    /// Closed locally; awaiting the NSM's confirmation.
    Closing,
    /// An unrecoverable error was reported by the NSM.
    Error(NkError),
}

/// A chunk of received data parked in the hugepages, not yet consumed by the
/// application.
#[derive(Clone, Copy, Debug)]
pub struct RxChunk {
    /// Where the payload lives in the shared region.
    pub handle: DataHandle,
    /// Total chunk length.
    pub len: usize,
    /// How much of it the application has already consumed.
    pub consumed: usize,
}

/// Guest-side bookkeeping for one NetKernel socket.
pub struct GuestSocket {
    /// Guest-visible socket id (the "fd").
    pub id: SocketId,
    /// Current state.
    pub state: GuestSocketState,
    /// Queue set this socket is pinned to (connection → queue-set affinity,
    /// paper §4.3).
    pub queue_set: QueueSetId,
    /// Local address, when bound.
    pub local: Option<SockAddr>,
    /// Remote address, when connected or accepted.
    pub remote: Option<SockAddr>,
    /// Send-buffer accounting: bytes parked in hugepages awaiting the NSM's
    /// send results (§4.5).
    pub send_budget: BufferBudget,
    /// Received chunks not yet consumed by the application.
    pub rx_chunks: VecDeque<RxChunk>,
    /// Connections accepted by the NSM and waiting for the application's
    /// `accept()` (listeners only).
    pub accept_queue: VecDeque<(SocketId, SockAddr)>,
    /// Readiness interest registered via `epoll_register`.
    pub interest: PollEvents,
    /// Receive credit a full job ring refused: the socket's next credit or
    /// GuestLib's `drive` sends it, and it dies with the socket.
    pub owed: usize,
}

impl GuestSocket {
    /// Fresh socket in the `Created` state.
    pub fn new(id: SocketId, queue_set: QueueSetId, send_buf: usize) -> Self {
        GuestSocket {
            id,
            state: GuestSocketState::Created,
            queue_set,
            local: None,
            remote: None,
            send_budget: BufferBudget::new(send_buf),
            rx_chunks: VecDeque::new(),
            accept_queue: VecDeque::new(),
            interest: PollEvents::NONE,
            owed: 0,
        }
    }

    /// Bytes of received data available to the application right now.
    pub fn rx_available(&self) -> usize {
        self.rx_chunks.iter().map(|c| c.len - c.consumed).sum()
    }

    /// Current readiness of the socket.
    pub fn readiness(&self) -> PollEvents {
        let mut ev = PollEvents::NONE;
        match self.state {
            GuestSocketState::Listening if !self.accept_queue.is_empty() => {
                ev |= PollEvents::READABLE;
            }
            GuestSocketState::Established | GuestSocketState::PeerClosed => {
                if self.rx_available() > 0 || matches!(self.state, GuestSocketState::PeerClosed) {
                    ev |= PollEvents::READABLE;
                }
                if matches!(self.state, GuestSocketState::Established)
                    && !self.send_budget.is_full()
                {
                    ev |= PollEvents::WRITABLE;
                }
                if matches!(self.state, GuestSocketState::PeerClosed) {
                    ev |= PollEvents::HUP;
                }
            }
            GuestSocketState::Error(_) => ev |= PollEvents::ERROR,
            GuestSocketState::Closing => ev |= PollEvents::HUP,
            _ => {}
        }
        ev
    }
}

impl Recycle for GuestSocket {
    /// A new socket in a freed slot takes the old one's queues, emptied.
    fn recycle(&mut self, old: Self) {
        (self.rx_chunks, self.accept_queue) = (old.rx_chunks, old.accept_queue);
        self.rx_chunks.clear();
        self.accept_queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sock() -> GuestSocket {
        GuestSocket::new(SocketId(1), QueueSetId(0), 1000)
    }

    #[test]
    fn new_socket_has_no_readiness() {
        let s = sock();
        assert_eq!(s.state, GuestSocketState::Created);
        assert!(s.readiness().is_empty());
        assert_eq!(s.rx_available(), 0);
    }

    #[test]
    fn established_socket_is_writable_until_budget_full() {
        let mut s = sock();
        s.state = GuestSocketState::Established;
        assert!(s.readiness().writable());
        s.send_budget.reserve(1000).unwrap();
        assert!(!s.readiness().writable());
    }

    #[test]
    fn rx_chunks_make_socket_readable() {
        let mut s = sock();
        s.state = GuestSocketState::Established;
        assert!(!s.readiness().readable());
        s.rx_chunks.push_back(RxChunk {
            handle: DataHandle::from_offset(0),
            len: 100,
            consumed: 40,
        });
        assert_eq!(s.rx_available(), 60);
        assert!(s.readiness().readable());
    }

    #[test]
    fn listener_readable_when_accept_queue_nonempty() {
        let mut s = sock();
        s.state = GuestSocketState::Listening;
        assert!(!s.readiness().readable());
        s.accept_queue
            .push_back((SocketId(9), SockAddr::v4(1, 2, 3, 4, 5)));
        assert!(s.readiness().readable());
    }

    #[test]
    fn peer_closed_reports_readable_and_hup() {
        let mut s = sock();
        s.state = GuestSocketState::PeerClosed;
        let ev = s.readiness();
        assert!(ev.readable());
        assert!(ev.hup());
        assert!(!ev.writable());
    }

    #[test]
    fn error_state_reports_error() {
        let mut s = sock();
        s.state = GuestSocketState::Error(NkError::ConnRefused);
        assert!(s.readiness().error());
    }
}
