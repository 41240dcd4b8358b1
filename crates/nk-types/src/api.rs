//! The guest-facing socket API.
//!
//! NetKernel keeps the BSD socket API as the abstraction boundary between the
//! application and the infrastructure (paper §1, §4.1). Applications and
//! workload generators in this repository are written against the
//! [`SocketApi`] trait; it is implemented both by the NetKernel `GuestLib`
//! (redirecting every call into NQEs) and by the baseline in-guest stack, so
//! the *same unmodified application code* runs in both configurations — the
//! property use case 3 (§6.3) depends on.
//!
//! The API is non-blocking / readiness-based, mirroring the `epoll`-driven
//! servers used throughout the paper's evaluation. Blocking helpers are
//! provided by the host layer for the threaded execution mode.

use crate::addr::SockAddr;
use crate::error::NkResult;
use crate::ids::SocketId;
use std::ops::{BitOr, BitOrAssign};

/// Readiness events reported by [`SocketApi::epoll_wait`] (an `EPOLLIN`/
/// `EPOLLOUT`-style bit set).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct PollEvents(pub u8);

impl PollEvents {
    /// No readiness.
    pub const NONE: PollEvents = PollEvents(0);
    /// Data is available to read, or a pending connection can be accepted.
    pub const READABLE: PollEvents = PollEvents(1);
    /// The socket can accept more outgoing data.
    pub const WRITABLE: PollEvents = PollEvents(2);
    /// The peer closed the connection.
    pub const HUP: PollEvents = PollEvents(4);
    /// An asynchronous error is pending on the socket.
    pub const ERROR: PollEvents = PollEvents(8);

    /// True when no bit is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when every bit of `other` is set in `self`.
    pub fn contains(self, other: PollEvents) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when the socket is readable.
    pub fn readable(self) -> bool {
        self.contains(PollEvents::READABLE)
    }

    /// True when the socket is writable.
    pub fn writable(self) -> bool {
        self.contains(PollEvents::WRITABLE)
    }

    /// True when the peer hung up.
    pub fn hup(self) -> bool {
        self.contains(PollEvents::HUP)
    }

    /// True when an error is pending.
    pub fn error(self) -> bool {
        self.contains(PollEvents::ERROR)
    }
}

impl BitOr for PollEvents {
    type Output = PollEvents;
    fn bitor(self, rhs: PollEvents) -> PollEvents {
        PollEvents(self.0 | rhs.0)
    }
}

impl BitOrAssign for PollEvents {
    fn bitor_assign(&mut self, rhs: PollEvents) {
        self.0 |= rhs.0;
    }
}

/// One readiness event returned by [`SocketApi::epoll_wait`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EpollEvent {
    /// The socket that became ready.
    pub socket: SocketId,
    /// The readiness bits.
    pub events: PollEvents,
}

/// Socket options understood by [`SocketApi::set_sockopt`].
///
/// Only the options exercised by the paper's workloads are modelled.
pub mod sockopt {
    /// Allow multiple listeners to share a port (`SO_REUSEPORT`, used by the
    /// multi-core epoll servers in §7.4).
    pub const REUSEPORT: u32 = 1;
    /// Disable Nagle's algorithm (`TCP_NODELAY`).
    pub const NODELAY: u32 = 2;
    /// Send buffer size in bytes (`SO_SNDBUF`).
    pub const SNDBUF: u32 = 3;
    /// Receive buffer size in bytes (`SO_RCVBUF`).
    pub const RCVBUF: u32 = 4;
    /// Congestion control algorithm selector (`TCP_CONGESTION`). Its value
    /// is accepted and ignored: an NSM's algorithm comes from its
    /// `NsmConfig::cc`.
    pub const CONGESTION: u32 = 5;
}

/// `how` argument of [`SocketApi::shutdown`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShutdownHow {
    /// Close the read side.
    Read,
    /// Close the write side (sends FIN once buffered data drains).
    Write,
    /// Close both sides.
    Both,
}

impl ShutdownHow {
    /// Encode into an NQE `op_data` value.
    pub fn encode(self) -> u64 {
        match self {
            ShutdownHow::Read => 0,
            ShutdownHow::Write => 1,
            ShutdownHow::Both => 2,
        }
    }

    /// Decode from an NQE `op_data` value (unknown values mean `Both`).
    pub fn decode(v: u64) -> ShutdownHow {
        match v {
            0 => ShutdownHow::Read,
            1 => ShutdownHow::Write,
            _ => ShutdownHow::Both,
        }
    }
}

/// The BSD-socket-style API applications program against.
///
/// All calls are non-blocking: operations that cannot complete immediately
/// return [`crate::NkError::WouldBlock`] and the caller is expected to wait
/// for the corresponding readiness event via [`SocketApi::epoll_wait`].
///
/// Implementations must be drivable by repeatedly calling
/// [`SocketApi::drive`], which performs pending protocol work (processing
/// completion NQEs for the NetKernel GuestLib, running the TCP state machine
/// for the baseline stack) without blocking.
pub trait SocketApi {
    /// Create a new stream socket and return its id.
    fn socket(&mut self) -> NkResult<SocketId>;

    /// Bind the socket to a local address.
    fn bind(&mut self, sock: SocketId, addr: SockAddr) -> NkResult<()>;

    /// Mark the socket as a passive listener with the given backlog.
    fn listen(&mut self, sock: SocketId, backlog: u32) -> NkResult<()>;

    /// Accept a pending connection. Returns the new socket and the peer
    /// address, or `WouldBlock` when the accept queue is empty.
    fn accept(&mut self, sock: SocketId) -> NkResult<(SocketId, SockAddr)>;

    /// Start connecting to a remote address. Completion is reported through a
    /// `WRITABLE` readiness event (or `ERROR` on failure).
    fn connect(&mut self, sock: SocketId, addr: SockAddr) -> NkResult<()>;

    /// Queue up to `data.len()` bytes for transmission; returns the number of
    /// bytes accepted into the send buffer.
    fn send(&mut self, sock: SocketId, data: &[u8]) -> NkResult<usize>;

    /// Receive up to `buf.len()` bytes; returns the number of bytes copied.
    /// Returns `Ok(0)` once the peer has closed and all data was consumed.
    fn recv(&mut self, sock: SocketId, buf: &mut [u8]) -> NkResult<usize>;

    /// Set a socket option (see [`sockopt`]).
    fn set_sockopt(&mut self, sock: SocketId, opt: u32, value: u32) -> NkResult<()>;

    /// Shut down one or both directions of the connection.
    fn shutdown(&mut self, sock: SocketId, how: ShutdownHow) -> NkResult<()>;

    /// Close the socket and release its resources.
    fn close(&mut self, sock: SocketId) -> NkResult<()>;

    /// Register interest in readiness events for `sock`.
    fn epoll_register(&mut self, sock: SocketId, interest: PollEvents) -> NkResult<()>;

    /// Remove `sock` from the interest set.
    fn epoll_unregister(&mut self, sock: SocketId) -> NkResult<()>;

    /// Collect readiness events for registered sockets, up to `max_events`.
    /// Never blocks; an empty vector means nothing is ready.
    fn epoll_wait(&mut self, max_events: usize) -> Vec<EpollEvent>;

    /// Current readiness of a single socket, regardless of registration.
    fn poll(&mut self, sock: SocketId) -> PollEvents;

    /// Perform pending non-blocking protocol work (drain completion queues,
    /// run timers). Returns the number of internal events processed, which is
    /// `0` when there was nothing to do.
    fn drive(&mut self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_events_bit_ops() {
        let mut e = PollEvents::NONE;
        assert!(e.is_empty());
        e |= PollEvents::READABLE;
        e |= PollEvents::WRITABLE;
        assert!(e.readable());
        assert!(e.writable());
        assert!(!e.hup());
        assert!(e.contains(PollEvents::READABLE | PollEvents::WRITABLE));
        assert!(!e.contains(PollEvents::ERROR));
    }

    #[test]
    fn shutdown_how_roundtrip() {
        for how in [ShutdownHow::Read, ShutdownHow::Write, ShutdownHow::Both] {
            assert_eq!(ShutdownHow::decode(how.encode()), how);
        }
        assert_eq!(ShutdownHow::decode(99), ShutdownHow::Both);
    }
}
