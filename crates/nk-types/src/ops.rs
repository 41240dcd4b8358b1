//! Socket operations and execution results carried inside NQEs.
//!
//! GuestLib translates every BSD socket call into a *request* operation and
//! ServiceLib translates the network stack's answer into a *completion* or
//! *event* operation (paper §4.2). The operation kind is stored in the first
//! byte of the NQE.

use crate::error::NkError;

/// Operation type stored in the first byte of an NQE.
///
/// Values below 20 are requests travelling VM → NSM; values from 20 to 39 are
/// completions/events travelling NSM → VM. The numeric values are part of the
/// on-queue format and must stay stable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum OpType {
    // ---- Requests: VM → NSM (job queue / send queue) ----
    /// Create a socket in the NSM (`socket()`).
    SocketCreate = 1,
    /// Bind to a local address (`bind()`); `op_data` holds the packed address.
    Bind = 2,
    /// Start listening (`listen()`); `op_data` holds the backlog.
    Listen = 3,
    /// Ask the NSM to deliver the next accepted connection (`accept()`).
    Accept = 4,
    /// Connect to a remote address (`connect()`); `op_data` holds the packed
    /// address.
    Connect = 5,
    /// Transmit application data (`send()`); the NQE carries a hugepage data
    /// handle and the payload size. Travels on the *send* queue.
    Send = 6,
    /// Shut down one or both directions (`shutdown()`); `op_data` holds the
    /// `how` argument.
    Shutdown = 7,
    /// Close the socket (`close()`).
    Close = 8,
    /// Set a socket option; `op_data` packs (option, value).
    SetSockOpt = 9,
    /// Get a socket option; `op_data` packs the option id.
    GetSockOpt = 10,
    /// Return receive-buffer credit to the NSM after the application consumed
    /// `size` bytes via `recv()`.
    RecvConsumed = 11,

    // ---- Completions / events: NSM → VM (completion queue / receive queue) ----
    /// Completion of [`OpType::SocketCreate`]; `op_data` carries the result
    /// and the NSM-side socket id.
    SocketCreated = 20,
    /// Completion of [`OpType::Bind`].
    BindComplete = 21,
    /// Completion of [`OpType::Listen`].
    ListenComplete = 22,
    /// A new connection was accepted, on the listener's tuple; `op_data`
    /// carries the guest socket id the NSM allocated for the new connection
    /// (at or above `NSM_SOCKET_ID_BASE`) and `data` the packed peer
    /// address.
    Accepted = 23,
    /// Completion of [`OpType::Connect`].
    ConnectComplete = 24,
    /// Completion of [`OpType::Send`]; `size` bytes of send-buffer credit are
    /// returned to the VM.
    SendComplete = 25,
    /// New data arrived for a connection; the NQE carries a hugepage data
    /// handle and the size. Travels on the *receive* queue.
    DataReceived = 26,
    /// Completion of [`OpType::Shutdown`].
    ShutdownComplete = 27,
    /// Completion of [`OpType::Close`].
    CloseComplete = 28,
    /// Completion of [`OpType::SetSockOpt`].
    SetSockOptComplete = 29,
    /// Completion of [`OpType::GetSockOpt`]; `op_data` carries the value.
    GetSockOptComplete = 30,
    /// The peer closed or reset the connection (FIN/RST event).
    PeerClosed = 31,
    /// Asynchronous error on the connection; `op_data` carries the error code.
    ErrorEvent = 32,
}

impl OpType {
    /// Decode from the raw byte stored in an NQE.
    pub fn from_u8(v: u8) -> Option<OpType> {
        Some(match v {
            1 => OpType::SocketCreate,
            2 => OpType::Bind,
            3 => OpType::Listen,
            4 => OpType::Accept,
            5 => OpType::Connect,
            6 => OpType::Send,
            7 => OpType::Shutdown,
            8 => OpType::Close,
            9 => OpType::SetSockOpt,
            10 => OpType::GetSockOpt,
            11 => OpType::RecvConsumed,
            20 => OpType::SocketCreated,
            21 => OpType::BindComplete,
            22 => OpType::ListenComplete,
            23 => OpType::Accepted,
            24 => OpType::ConnectComplete,
            25 => OpType::SendComplete,
            26 => OpType::DataReceived,
            27 => OpType::ShutdownComplete,
            28 => OpType::CloseComplete,
            29 => OpType::SetSockOptComplete,
            30 => OpType::GetSockOptComplete,
            31 => OpType::PeerClosed,
            32 => OpType::ErrorEvent,
            _ => return None,
        })
    }

    /// True for operations issued by the VM (requests).
    pub fn is_request(self) -> bool {
        (self as u8) < 20
    }

    /// True for completions and events issued by the NSM.
    pub fn is_completion(self) -> bool {
        !self.is_request()
    }

    /// True for operations that carry application data through hugepages and
    /// therefore travel on the send/receive queues rather than the
    /// job/completion queues (paper §4.2).
    pub fn carries_data(self) -> bool {
        matches!(self, OpType::Send | OpType::DataReceived)
    }

    /// The completion op type expected in response to a request, if any.
    ///
    /// [`OpType::Accept`] completes with [`OpType::Accepted`];
    /// [`OpType::RecvConsumed`] is fire-and-forget and has no completion.
    pub fn completion(self) -> Option<OpType> {
        Some(match self {
            OpType::SocketCreate => OpType::SocketCreated,
            OpType::Bind => OpType::BindComplete,
            OpType::Listen => OpType::ListenComplete,
            OpType::Accept => OpType::Accepted,
            OpType::Connect => OpType::ConnectComplete,
            OpType::Send => OpType::SendComplete,
            OpType::Shutdown => OpType::ShutdownComplete,
            OpType::Close => OpType::CloseComplete,
            OpType::SetSockOpt => OpType::SetSockOptComplete,
            OpType::GetSockOpt => OpType::GetSockOptComplete,
            OpType::RecvConsumed => return None,
            _ => return None,
        })
    }
}

/// Execution result of a socket operation, as carried in the low 32 bits of
/// the `op_data` field of completion NQEs.
///
/// The high 32 bits of `op_data` remain available for per-operation payload
/// (e.g. the NSM socket id for `SocketCreated`, the option value for
/// `GetSockOptComplete`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpResult {
    /// The operation succeeded.
    Ok,
    /// The operation failed with the given error.
    Err(NkError),
}

impl OpResult {
    /// Encode into the low 32 bits of `op_data`.
    pub fn encode(self) -> u32 {
        match self {
            OpResult::Ok => 0,
            OpResult::Err(e) => e.code(),
        }
    }

    /// Decode from the low 32 bits of `op_data`. Unknown codes decode as
    /// [`NkError::MalformedNqe`] rather than panicking so a corrupted NQE
    /// cannot take the guest down.
    pub fn decode(v: u32) -> OpResult {
        if v == 0 {
            OpResult::Ok
        } else {
            match NkError::from_code(v) {
                Some(e) => OpResult::Err(e),
                None => OpResult::Err(NkError::MalformedNqe),
            }
        }
    }

    /// True when the operation succeeded.
    pub fn is_ok(self) -> bool {
        matches!(self, OpResult::Ok)
    }
}

/// Helpers for packing two 32-bit values into the 8-byte `op_data` field.
pub mod op_data {
    use super::OpResult;

    /// Pack a result (low 32 bits) and an auxiliary value (high 32 bits).
    pub fn pack(result: OpResult, aux: u32) -> u64 {
        (u64::from(aux) << 32) | u64::from(result.encode())
    }

    /// Extract the result from the low 32 bits.
    pub fn result(op_data: u64) -> OpResult {
        OpResult::decode((op_data & 0xFFFF_FFFF) as u32)
    }

    /// Extract the auxiliary value from the high 32 bits.
    pub fn aux(op_data: u64) -> u32 {
        (op_data >> 32) as u32
    }

    /// Pack a socket-option id and value (used by `SetSockOpt`).
    pub fn pack_sockopt(opt: u32, value: u32) -> u64 {
        (u64::from(opt) << 32) | u64::from(value)
    }

    /// Extract the socket-option id from a `SetSockOpt` request.
    pub fn sockopt_opt(op_data: u64) -> u32 {
        (op_data >> 32) as u32
    }

    /// Extract the socket-option value from a `SetSockOpt` request.
    pub fn sockopt_value(op_data: u64) -> u32 {
        (op_data & 0xFFFF_FFFF) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optype_roundtrip() {
        for v in 0..=255u8 {
            if let Some(op) = OpType::from_u8(v) {
                assert_eq!(op as u8, v);
            }
        }
        // Every named variant decodes back to itself.
        for op in [
            OpType::SocketCreate,
            OpType::Bind,
            OpType::Listen,
            OpType::Accept,
            OpType::Connect,
            OpType::Send,
            OpType::Shutdown,
            OpType::Close,
            OpType::SetSockOpt,
            OpType::GetSockOpt,
            OpType::RecvConsumed,
            OpType::SocketCreated,
            OpType::BindComplete,
            OpType::ListenComplete,
            OpType::Accepted,
            OpType::ConnectComplete,
            OpType::SendComplete,
            OpType::DataReceived,
            OpType::ShutdownComplete,
            OpType::CloseComplete,
            OpType::SetSockOptComplete,
            OpType::GetSockOptComplete,
            OpType::PeerClosed,
            OpType::ErrorEvent,
        ] {
            assert_eq!(OpType::from_u8(op as u8), Some(op));
        }
    }

    #[test]
    fn request_completion_partition() {
        assert!(OpType::Send.is_request());
        assert!(!OpType::Send.is_completion());
        assert!(OpType::DataReceived.is_completion());
        assert!(!OpType::DataReceived.is_request());
    }

    #[test]
    fn data_queue_classification() {
        assert!(OpType::Send.carries_data());
        assert!(OpType::DataReceived.carries_data());
        assert!(!OpType::Connect.carries_data());
        assert!(!OpType::SendComplete.carries_data());
    }

    #[test]
    fn completion_mapping() {
        assert_eq!(
            OpType::SocketCreate.completion(),
            Some(OpType::SocketCreated)
        );
        assert_eq!(OpType::Accept.completion(), Some(OpType::Accepted));
        assert_eq!(OpType::RecvConsumed.completion(), None);
        assert_eq!(OpType::DataReceived.completion(), None);
    }

    #[test]
    fn opresult_roundtrip() {
        assert_eq!(OpResult::decode(OpResult::Ok.encode()), OpResult::Ok);
        let e = OpResult::Err(NkError::ConnRefused);
        assert_eq!(OpResult::decode(e.encode()), e);
        // Unknown error codes degrade to MalformedNqe instead of panicking.
        assert_eq!(
            OpResult::decode(0xDEAD_BEEF),
            OpResult::Err(NkError::MalformedNqe)
        );
    }

    #[test]
    fn op_data_packing() {
        let d = op_data::pack(OpResult::Err(NkError::WouldBlock), 77);
        assert_eq!(op_data::result(d), OpResult::Err(NkError::WouldBlock));
        assert_eq!(op_data::aux(d), 77);

        let s = op_data::pack_sockopt(3, 1);
        assert_eq!(op_data::sockopt_opt(s), 3);
        assert_eq!(op_data::sockopt_value(s), 1);
    }
}
