//! Cross-host migration payloads: identity exports and warm-migration
//! connection snapshots.
//!
//! A *drained* migration moves only VM identity ([`VmExport`]): the
//! destination serves new connections while pinned ones finish on the
//! source. A *warm* migration also transplants the live stack state of
//! every pinned connection ([`VmWarmExport`]): sequence numbers, windows,
//! buffered and unacknowledged bytes, the ephemeral-port binding, plus the
//! ServiceLib- and GuestLib-side bookkeeping the connection spans. The
//! export is a consistent snapshot taken inside a freeze window and
//! installed at the destination in one step — the same
//! snapshot-and-install handoff "A Wait-Free Universal Construct for Large
//! Objects" uses for large-object ownership transfer.
//!
//! Everything here is plain data: an export is a value that could cross a
//! real control-plane wire, not a bundle of live Rust objects.

use crate::addr::SockAddr;
use crate::config::VmConfig;
use crate::ids::{HostId, NsmId, QueueSetId, SocketId, VmId};

/// Host-independent snapshot of a VM's identity, produced by
/// `NetKernelHost::export_vm` and consumed by `NetKernelHost::import_vm` on
/// the destination host of a cross-host migration.
#[derive(Clone, Debug, PartialEq)]
pub struct VmExport {
    /// The VM's configuration (identity, vCPUs, tenant, rate limit).
    pub vm: VmConfig,
    /// The NSM that was serving the VM on the source host — the share whose
    /// pinned connections drain (or, warm, move).
    pub from_nsm: NsmId,
}

/// TCP phase of a transplantable connection. Only post-handshake phases
/// move: an embryonic connection has no state worth carrying, and a closed
/// one has none left.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpPhase {
    /// Data transfer.
    Established,
    /// We closed first; FIN sent (or queued), awaiting its ACK.
    FinWait1,
    /// Our FIN was acknowledged; waiting for the peer's FIN.
    FinWait2,
    /// Peer closed first; the application may still send.
    CloseWait,
    /// Both sides closed simultaneously.
    Closing,
    /// Peer closed, our FIN is in flight.
    LastAck,
}

/// Plain-data state of one TCP connection, exported from the source NSM's
/// stack and installed into the destination NSM's stack.
///
/// The snapshot rewinds the send side to the first unacknowledged byte
/// (go-back-N): whatever was in flight when the freeze window closed is
/// simply retransmitted by the destination, so nothing on the wire needs to
/// survive the handoff. Congestion-control state is deliberately *not*
/// transplanted — the path changed with the host, so the window is
/// re-probed from its initial value, exactly as after a route change.
#[derive(Clone, Debug, PartialEq)]
pub struct TcpConnSnapshot {
    /// Local endpoint — the *source* NSM's vNIC address and the ephemeral
    /// (or bound) port. The 4-tuple is the connection's identity and
    /// survives the move; the fabric reroutes the address.
    pub local: SockAddr,
    /// Remote endpoint.
    pub remote: SockAddr,
    /// TCP phase at snapshot time.
    pub phase: TcpPhase,
    /// First unacknowledged sequence number (send side resumes here).
    pub snd_una: u32,
    /// Unacknowledged plus unsent bytes, from `snd_una` onwards.
    pub send_buf: Vec<u8>,
    /// Send-buffer capacity in bytes.
    pub send_buf_cap: usize,
    /// Peer's last advertised receive window.
    pub snd_wnd: u32,
    /// The application already closed the write side.
    pub fin_queued: bool,
    /// Next expected receive sequence number.
    pub rcv_nxt: u32,
    /// In-order received bytes not yet read by the application.
    pub recv_buf: Vec<u8>,
    /// Receive-buffer capacity in bytes.
    pub recv_buf_cap: usize,
    /// Out-of-order segments awaiting the gap to fill, as (seq, payload).
    pub ooo: Vec<(u32, Vec<u8>)>,
    /// Sequence number of the peer's FIN, if one was seen.
    pub peer_fin_seq: Option<u32>,
    /// The peer's FIN has been consumed.
    pub peer_fin_received: bool,
    /// Smoothed RTT estimate, carried so the destination's retransmission
    /// timer starts calibrated instead of at the initial RTO.
    pub srtt_ns: Option<u64>,
    /// RTT variance estimate.
    pub rttvar_ns: u64,
    /// Current retransmission timeout.
    pub rto_ns: u64,
}

/// Guest-side bookkeeping of one transplanted socket: what GuestLib must
/// recreate on the destination so the application keeps using the same
/// socket id without observing the move.
#[derive(Clone, Debug, PartialEq)]
pub struct GuestSockSnapshot {
    /// The application-visible socket id (preserved across the move).
    pub id: SocketId,
    /// VM-side queue set the socket is pinned to.
    pub queue_set: QueueSetId,
    /// Local address, when bound.
    pub local: Option<SockAddr>,
    /// Remote address.
    pub remote: Option<SockAddr>,
    /// The guest already observed the peer's close.
    pub peer_closed: bool,
    /// Send-budget capacity in bytes.
    pub send_buf_cap: usize,
    /// Send-budget bytes reserved at snapshot time (payload handed to the
    /// NSM but not yet credited back).
    pub send_reserved: usize,
    /// Received payload the application has not consumed yet, re-parked in
    /// the destination's hugepages on install.
    pub rx_bytes: Vec<u8>,
    /// Epoll interest bits registered on the socket.
    pub interest: u8,
}

/// One pinned connection's complete cross-layer state: the TCP machine,
/// the ServiceLib translation context, and the guest socket.
#[derive(Clone, Debug, PartialEq)]
pub struct ConnSnapshot {
    /// Guest-side socket id (the key of the CoreEngine VM tuple).
    pub guest_sock: SocketId,
    /// VM-side queue set of the tuple.
    pub vm_queue_set: QueueSetId,
    /// The TCP state machine.
    pub tcp: TcpConnSnapshot,
    /// Payload accepted from the guest but not yet taken by the stack
    /// (the runs ServiceLib queued for the socket, in order).
    pub queued: Vec<Vec<u8>>,
    /// Receive-credit bytes announced to the guest and not yet consumed.
    pub rx_outstanding: usize,
    /// The guest shut its write side behind `queued`: the stack shuts it
    /// once they are all in.
    pub shut_queued: bool,
    /// The peer's FIN arrived and the guest has not been told: it is, once
    /// the stack holds no byte for it.
    pub eof_owed: bool,
    /// The guest socket to recreate.
    pub guest: GuestSockSnapshot,
}

/// A warm cross-host export: the VM's identity plus the live state of every
/// connection pinned to its source share. Installing this at the
/// destination moves the connections instead of draining them — the source
/// share empties immediately.
#[derive(Clone, Debug, PartialEq)]
pub struct VmWarmExport {
    /// The identity export a drained migration would carry.
    pub base: VmExport,
    /// The host the VM is leaving (the fabric reroutes its connection
    /// addresses away from this host's block).
    pub from_host: HostId,
    /// Every pinned connection, in guest-socket order.
    pub conns: Vec<ConnSnapshot>,
}

impl VmWarmExport {
    /// The migrating VM's id.
    pub fn vm_id(&self) -> VmId {
        self.base.vm.id
    }

    /// The distinct local addresses of the transplanted connections — the
    /// addresses the fabric must reroute to the destination host, in
    /// ascending order.
    pub fn rerouted_ips(&self) -> Vec<u32> {
        let mut ips: Vec<u32> = self.conns.iter().map(|c| c.tcp.local.ip).collect();
        ips.sort_unstable();
        ips.dedup();
        ips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VmConfig;

    fn snapshot() -> ConnSnapshot {
        ConnSnapshot {
            guest_sock: SocketId(3),
            vm_queue_set: QueueSetId(0),
            tcp: TcpConnSnapshot {
                local: SockAddr::new(0x0A01_0001, 40_000),
                remote: SockAddr::new(0xC0A8_0001, 7),
                phase: TcpPhase::Established,
                snd_una: 5_000,
                send_buf: vec![1, 2, 3],
                send_buf_cap: 64 * 1024,
                snd_wnd: 32 * 1024,
                fin_queued: false,
                rcv_nxt: 9_000,
                recv_buf: vec![7; 10],
                recv_buf_cap: 64 * 1024,
                ooo: vec![(9_100, vec![9; 4])],
                peer_fin_seq: None,
                peer_fin_received: false,
                srtt_ns: Some(200_000),
                rttvar_ns: 50_000,
                rto_ns: 10_000_000,
            },
            queued: vec![vec![4, 5]],
            rx_outstanding: 10,
            shut_queued: false,
            eof_owed: false,
            guest: GuestSockSnapshot {
                id: SocketId(3),
                queue_set: QueueSetId(0),
                local: None,
                remote: Some(SockAddr::new(0xC0A8_0001, 7)),
                peer_closed: false,
                send_buf_cap: 64 * 1024,
                send_reserved: 2,
                rx_bytes: vec![7; 10],
                interest: 0,
            },
        }
    }

    #[test]
    fn rerouted_ips_are_deduplicated_and_sorted() {
        let mut export = VmWarmExport {
            base: VmExport {
                vm: VmConfig::new(VmId(1)),
                from_nsm: NsmId(1),
            },
            from_host: HostId(1),
            conns: vec![snapshot(), snapshot()],
        };
        assert_eq!(export.vm_id(), VmId(1));
        export.conns[1].tcp.local = SockAddr::new(0x0A01_0001, 40_001);
        assert_eq!(export.rerouted_ips(), vec![0x0A01_0001]);
        export.conns[1].tcp.local = SockAddr::new(0x0A01_0002, 40_001);
        assert_eq!(export.rerouted_ips(), vec![0x0A01_0001, 0x0A01_0002]);
    }
}
