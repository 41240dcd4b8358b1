//! TCP segments exchanged over the virtual fabric.

use crate::payload::Payload;
use nk_fabric::Train;
use nk_types::constants::MSS;
use nk_types::SockAddr;

/// TCP header flags (only the ones the stack uses).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct SegmentFlags {
    /// Connection request / sequence-number synchronisation.
    pub syn: bool,
    /// Acknowledgement field is valid.
    pub ack: bool,
    /// Sender has finished sending.
    pub fin: bool,
    /// Abort the connection.
    pub rst: bool,
}

impl SegmentFlags {
    /// Flags for a SYN.
    pub fn syn() -> Self {
        SegmentFlags {
            syn: true,
            ..Default::default()
        }
    }

    /// Flags for a SYN-ACK.
    pub fn syn_ack() -> Self {
        SegmentFlags {
            syn: true,
            ack: true,
            ..Default::default()
        }
    }

    /// Flags for a plain ACK.
    pub fn ack() -> Self {
        SegmentFlags {
            ack: true,
            ..Default::default()
        }
    }

    /// Flags for a FIN-ACK.
    pub fn fin_ack() -> Self {
        SegmentFlags {
            fin: true,
            ack: true,
            ..Default::default()
        }
    }

    /// Flags for an RST.
    pub fn rst() -> Self {
        SegmentFlags {
            rst: true,
            ..Default::default()
        }
    }
}

/// Fixed per-segment header overhead on the wire (Ethernet + IPv4 + TCP).
pub const HEADER_BYTES: usize = 14 + 20 + 20;

/// A TCP segment, or a train of them: a data segment of k·[`MSS`] bytes,
/// k ≥ 2, stands for k full-sized segments that differ only in `seq`
/// ([`Train`]). Only a stack's `poll_transmit` forms one, cut in one slice
/// from a run of its send queue: as many whole pieces as the run holds, up
/// to the send window.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Source endpoint.
    pub src: SockAddr,
    /// Destination endpoint.
    pub dst: SockAddr,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u32,
    /// Cumulative acknowledgement number (valid when `flags.ack`).
    pub ack: u32,
    /// Advertised receive window in bytes.
    pub window: u32,
    /// Header flags.
    pub flags: SegmentFlags,
    /// Application payload: a reference to bytes the sender's `write`
    /// buffered, not a copy of them.
    pub payload: Payload,
}

impl Segment {
    /// An empty control segment.
    pub fn control(src: SockAddr, dst: SockAddr, flags: SegmentFlags) -> Self {
        Segment {
            src,
            dst,
            seq: 0,
            ack: 0,
            window: 0,
            flags,
            payload: Payload::default(),
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the segment carries no payload.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Size of the segment on the wire, including header overhead (a
    /// train's total: one header per segment in it).
    pub fn wire_bytes(&self) -> usize {
        HEADER_BYTES * self.frames() + self.payload.len()
    }
}

impl Train for Segment {
    #[inline]
    fn frames(&self) -> usize {
        let len = self.payload.len();
        if len > MSS && len.is_multiple_of(MSS) {
            len / MSS
        } else {
            1
        }
    }

    fn split_front(&mut self, n: usize) -> Segment {
        let bytes = n * MSS;
        let head = Segment {
            src: self.src,
            dst: self.dst,
            seq: self.seq,
            ack: self.ack,
            window: self.window,
            flags: self.flags,
            payload: self.payload.take_front(bytes),
        };
        self.seq = self.seq.wrapping_add(bytes as u32);
        head
    }
}

/// Wrapping sequence-number comparison: true when `a < b` in sequence space.
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// Wrapping sequence-number comparison: true when `a <= b` in sequence space.
pub fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// Wrapping sequence-number comparison: true when `a > b` in sequence space.
pub fn seq_gt(a: u32, b: u32) -> bool {
    seq_lt(b, a)
}

/// Wrapping sequence-number comparison: true when `a >= b` in sequence space.
pub fn seq_ge(a: u32, b: u32) -> bool {
    seq_le(b, a)
}

#[cfg(test)]
impl Segment {
    /// Sequence space consumed by this segment (payload plus one for SYN and
    /// one for FIN).
    pub(crate) fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + u32::from(self.flags.syn) + u32::from(self.flags.fin)
    }

    /// The sequence number immediately after this segment.
    pub(crate) fn seq_end(&self) -> u32 {
        self.seq.wrapping_add(self.seq_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(p: u16) -> SockAddr {
        SockAddr::v4(10, 0, 0, 1, p)
    }

    #[test]
    fn seq_space_accounting() {
        let mut s = Segment::control(addr(1), addr(2), SegmentFlags::syn());
        assert_eq!(s.seq_len(), 1);
        s.flags = SegmentFlags::ack();
        s.payload = vec![0u8; 100].into();
        assert_eq!(s.seq_len(), 100);
        assert_eq!(s.len(), 100);
        assert!(!s.is_empty());
        s.flags.fin = true;
        assert_eq!(s.seq_len(), 101);
        s.seq = u32::MAX - 50;
        assert_eq!(s.seq_end(), 50); // wraps around
    }

    #[test]
    fn wire_bytes_include_headers() {
        let mut s = Segment::control(addr(1), addr(2), SegmentFlags::ack());
        assert_eq!(s.wire_bytes(), HEADER_BYTES);
        s.payload = vec![0u8; 1460].into();
        assert_eq!(s.wire_bytes(), HEADER_BYTES + 1460);
    }

    #[test]
    fn wrapping_comparisons() {
        assert!(seq_lt(1, 2));
        assert!(!seq_lt(2, 2));
        assert!(seq_le(2, 2));
        assert!(seq_gt(2, 1));
        assert!(seq_ge(2, 2));
        // Near the wrap point: u32::MAX is "before" 5.
        assert!(seq_lt(u32::MAX - 2, 5));
        assert!(seq_gt(5, u32::MAX - 2));
    }

    #[test]
    fn flag_constructors() {
        assert!(SegmentFlags::syn().syn);
        assert!(!SegmentFlags::syn().ack);
        assert!(SegmentFlags::syn_ack().syn && SegmentFlags::syn_ack().ack);
        assert!(SegmentFlags::fin_ack().fin && SegmentFlags::fin_ack().ack);
        assert!(SegmentFlags::rst().rst);
    }
}
