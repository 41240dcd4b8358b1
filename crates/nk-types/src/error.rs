//! Error types shared across the workspace.

use std::fmt;

/// Convenient result alias used by every NetKernel crate.
pub type NkResult<T> = Result<T, NkError>;

/// Errors produced by NetKernel components.
///
/// The variants deliberately mirror the POSIX error surface an application
/// would observe through the BSD socket API, plus a small number of
/// NetKernel-internal conditions (queue overflow, unknown connections in the
/// CoreEngine table, hugepage exhaustion).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NkError {
    /// Operation would block; retry after the next readiness event
    /// (`EWOULDBLOCK`).
    WouldBlock,
    /// The address is already bound by another socket (`EADDRINUSE`).
    AddrInUse,
    /// The remote end refused the connection (`ECONNREFUSED`).
    ConnRefused,
    /// The connection was reset by the peer (`ECONNRESET`).
    ConnReset,
    /// The socket is not connected (`ENOTCONN`).
    NotConnected,
    /// The socket is already connected (`EISCONN`).
    AlreadyConnected,
    /// The file descriptor / socket id is not valid (`EBADF`).
    BadSocket,
    /// The operation is invalid for the socket's current state (`EINVAL`).
    InvalidState,
    /// The socket (or its peer) has been closed (`EPIPE`).
    Closed,
    /// The operation timed out (`ETIMEDOUT`).
    TimedOut,
    /// Send or receive buffer (hugepage credit) is exhausted (`ENOBUFS`).
    BufferFull,
    /// A lockless queue was full; the element was not enqueued.
    QueueFull,
    /// A lockless queue was empty; nothing to dequeue.
    QueueEmpty,
    /// The hugepage region has no free chunk large enough.
    OutOfHugepages,
    /// The CoreEngine connection table has no entry for the given tuple.
    UnknownConnection,
    /// No NSM is registered to serve the VM.
    NoNsm,
    /// The requested entity (VM, NSM, device, queue set) does not exist.
    NotFound,
    /// The entity is already registered.
    AlreadyRegistered,
    /// A configuration value is out of range or inconsistent.
    BadConfig,
    /// An NQE could not be decoded (corrupt or unknown op type).
    MalformedNqe,
    /// The operation is not supported by this NSM / stack.
    Unsupported,
    /// No NSM is currently serving the VM's requests: the mapped NSM crashed
    /// and has not been restarted or replaced yet.
    NsmUnavailable,
}

impl NkError {
    /// Errno-style numeric code carried inside NQE `op_data` result fields.
    ///
    /// Zero is reserved for success; every error maps to a distinct positive
    /// code so results round-trip through the 32-bit NQE result encoding.
    pub fn code(self) -> u32 {
        match self {
            NkError::WouldBlock => 1,
            NkError::AddrInUse => 2,
            NkError::ConnRefused => 3,
            NkError::ConnReset => 4,
            NkError::NotConnected => 5,
            NkError::AlreadyConnected => 6,
            NkError::BadSocket => 7,
            NkError::InvalidState => 8,
            NkError::Closed => 9,
            NkError::TimedOut => 10,
            NkError::BufferFull => 11,
            NkError::QueueFull => 12,
            NkError::QueueEmpty => 13,
            NkError::OutOfHugepages => 14,
            NkError::UnknownConnection => 15,
            NkError::NoNsm => 16,
            NkError::NotFound => 17,
            NkError::AlreadyRegistered => 18,
            NkError::BadConfig => 19,
            NkError::MalformedNqe => 20,
            NkError::Unsupported => 21,
            NkError::NsmUnavailable => 22,
        }
    }

    /// Inverse of [`NkError::code`]. Returns `None` for zero (success) and
    /// for unknown codes.
    pub fn from_code(code: u32) -> Option<NkError> {
        Some(match code {
            1 => NkError::WouldBlock,
            2 => NkError::AddrInUse,
            3 => NkError::ConnRefused,
            4 => NkError::ConnReset,
            5 => NkError::NotConnected,
            6 => NkError::AlreadyConnected,
            7 => NkError::BadSocket,
            8 => NkError::InvalidState,
            9 => NkError::Closed,
            10 => NkError::TimedOut,
            11 => NkError::BufferFull,
            12 => NkError::QueueFull,
            13 => NkError::QueueEmpty,
            14 => NkError::OutOfHugepages,
            15 => NkError::UnknownConnection,
            16 => NkError::NoNsm,
            17 => NkError::NotFound,
            18 => NkError::AlreadyRegistered,
            19 => NkError::BadConfig,
            20 => NkError::MalformedNqe,
            21 => NkError::Unsupported,
            22 => NkError::NsmUnavailable,
            _ => return None,
        })
    }
}

impl fmt::Display for NkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            NkError::WouldBlock => "operation would block",
            NkError::AddrInUse => "address already in use",
            NkError::ConnRefused => "connection refused",
            NkError::ConnReset => "connection reset by peer",
            NkError::NotConnected => "socket is not connected",
            NkError::AlreadyConnected => "socket is already connected",
            NkError::BadSocket => "bad socket id",
            NkError::InvalidState => "invalid socket state for operation",
            NkError::Closed => "socket closed",
            NkError::TimedOut => "operation timed out",
            NkError::BufferFull => "socket buffer full",
            NkError::QueueFull => "NQE queue full",
            NkError::QueueEmpty => "NQE queue empty",
            NkError::OutOfHugepages => "hugepage region exhausted",
            NkError::UnknownConnection => "unknown connection tuple",
            NkError::NoNsm => "no NSM registered for VM",
            NkError::NotFound => "entity not found",
            NkError::AlreadyRegistered => "entity already registered",
            NkError::BadConfig => "invalid configuration",
            NkError::MalformedNqe => "malformed NQE",
            NkError::Unsupported => "operation not supported",
            NkError::NsmUnavailable => "no NSM currently serving the VM",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for NkError {}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[NkError] = &[
        NkError::WouldBlock,
        NkError::AddrInUse,
        NkError::ConnRefused,
        NkError::ConnReset,
        NkError::NotConnected,
        NkError::AlreadyConnected,
        NkError::BadSocket,
        NkError::InvalidState,
        NkError::Closed,
        NkError::TimedOut,
        NkError::BufferFull,
        NkError::QueueFull,
        NkError::QueueEmpty,
        NkError::OutOfHugepages,
        NkError::UnknownConnection,
        NkError::NoNsm,
        NkError::NotFound,
        NkError::AlreadyRegistered,
        NkError::BadConfig,
        NkError::MalformedNqe,
        NkError::Unsupported,
        NkError::NsmUnavailable,
    ];

    #[test]
    fn codes_roundtrip_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &e in ALL {
            let c = e.code();
            assert_ne!(c, 0, "zero is reserved for success");
            assert!(seen.insert(c), "duplicate code {c}");
            assert_eq!(NkError::from_code(c), Some(e));
        }
        assert_eq!(NkError::from_code(0), None);
        assert_eq!(NkError::from_code(9999), None);
    }

    #[test]
    fn display_is_nonempty() {
        for &e in ALL {
            assert!(!e.to_string().is_empty());
        }
    }
}
