//! Simplified socket addresses.
//!
//! The reproduction models an IPv4-like address space: a 32-bit host address
//! plus a 16-bit port. Addresses are packed into a single `u64` when carried
//! inside the `op_data` field of an NQE (e.g. for `bind()` and `connect()`),
//! mirroring how the paper stuffs the peer address into the 8-byte `op_data`
//! field (Figure 3).

use crate::ids::{HostId, NsmId};
use std::fmt;

/// Mask isolating the per-host block of the cluster address scheme: every
/// host owns the `10.<host>.0.0/16` block, so the top-of-rack switch routes
/// inter-host frames by this prefix alone.
pub const HOST_PREFIX_MASK: u32 = 0xFFFF_0000;

/// Base of the cluster address space (`10.0.0.0`).
pub const CLUSTER_IP_BASE: u32 = 0x0A00_0000;

/// The `10.<host>.0.0/16` prefix owned by one host.
pub fn host_prefix(host: HostId) -> u32 {
    CLUSTER_IP_BASE | (u32::from(host.raw()) << 16)
}

/// Address of an NSM's vNIC on a given host (`10.<host>.0.<nsm>`).
///
/// Host 0 keeps the single-host scheme (`10.0.0.<nsm>`) unchanged, so every
/// pre-cluster configuration resolves to the same addresses it always did.
pub fn nsm_ip_on(host: HostId, nsm: NsmId) -> u32 {
    host_prefix(host) | u32::from(nsm.raw())
}

/// An IPv4-style socket address (host, port).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SockAddr {
    /// Host address, conventionally written `a.b.c.d`.
    pub ip: u32,
    /// Transport port.
    pub port: u16,
}

impl SockAddr {
    /// The wildcard address `0.0.0.0:0`.
    pub const ANY: SockAddr = SockAddr { ip: 0, port: 0 };

    /// Construct an address from a host and a port.
    pub fn new(ip: u32, port: u16) -> Self {
        SockAddr { ip, port }
    }

    /// Construct an address from dotted-quad components.
    pub fn v4(a: u8, b: u8, c: u8, d: u8, port: u16) -> Self {
        SockAddr {
            ip: u32::from_be_bytes([a, b, c, d]),
            port,
        }
    }

    /// Pack into a `u64` for transport inside an NQE `op_data` field.
    pub fn pack(self) -> u64 {
        (u64::from(self.ip) << 16) | u64::from(self.port)
    }

    /// Unpack from a `u64` produced by [`SockAddr::pack`].
    pub fn unpack(v: u64) -> Self {
        SockAddr {
            ip: (v >> 16) as u32,
            port: (v & 0xFFFF) as u16,
        }
    }
}

impl fmt::Debug for SockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.ip.to_be_bytes();
        write!(f, "{}.{}.{}.{}:{}", b[0], b[1], b[2], b[3], self.port)
    }
}

impl fmt::Display for SockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let a = SockAddr::v4(10, 0, 1, 7, 8080);
        assert_eq!(SockAddr::unpack(a.pack()), a);
        let b = SockAddr::new(u32::MAX, u16::MAX);
        assert_eq!(SockAddr::unpack(b.pack()), b);
        assert_eq!(SockAddr::unpack(SockAddr::ANY.pack()), SockAddr::ANY);
    }

    #[test]
    fn display_is_dotted_quad() {
        assert_eq!(
            SockAddr::v4(192, 168, 1, 2, 80).to_string(),
            "192.168.1.2:80"
        );
    }

    #[test]
    fn host_addressing_scheme() {
        use crate::ids::{HostId, NsmId};
        assert_eq!(host_prefix(HostId(0)), 0x0A00_0000);
        assert_eq!(host_prefix(HostId(2)), 0x0A02_0000);
        // Host 0 keeps the legacy single-host NSM addresses.
        assert_eq!(nsm_ip_on(HostId(0), NsmId(1)), 0x0A00_0001);
        assert_eq!(nsm_ip_on(HostId(3), NsmId(7)), 0x0A03_0007);
        assert_eq!(
            nsm_ip_on(HostId(3), NsmId(7)) & HOST_PREFIX_MASK,
            host_prefix(HostId(3))
        );
    }
}
