//! Identifiers used throughout NetKernel.
//!
//! The NQE format (paper, Figure 3) reserves one byte for the VM identifier,
//! one byte for the queue-set identifier and four bytes for the socket
//! identifier, so the corresponding newtypes wrap `u8`/`u32`.

use std::fmt;

/// Identifier of a host in a NetKernel cluster.
///
/// The cluster address scheme folds the host id into the second octet of
/// every NSM vNIC address (`10.<host>.0.<nsm>`), so a `u8` covers the fabric
/// a single top-of-rack switch can serve.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u8);

serde::impl_serialize!(struct HostId(id));

/// Identifier of a tenant virtual machine on a host.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub u8);

serde::impl_serialize!(struct VmId(id));

/// Identifier of a Network Stack Module (NSM) on a host.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NsmId(pub u8);

serde::impl_serialize!(struct NsmId(id));

/// Identifier of a queue set inside an NK device.
///
/// There is one queue set per vCPU on each side (paper §4.3), so the id space
/// is small and a `u8` suffices.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueSetId(pub u8);

/// Identifier of a socket inside a VM or an NSM.
///
/// The paper uses the address of the `sock` struct; here an opaque 32-bit
/// handle allocated by the owning side plays the same role.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId(pub u32);

impl HostId {
    /// Raw byte value as folded into fabric addresses.
    pub fn raw(self) -> u8 {
        self.0
    }
}

impl VmId {
    /// Raw byte value as stored in an NQE.
    pub fn raw(self) -> u8 {
        self.0
    }
}

impl NsmId {
    /// Raw byte value as stored in the CoreEngine connection table.
    pub fn raw(self) -> u8 {
        self.0
    }
}

impl QueueSetId {
    /// Raw byte value as stored in an NQE.
    pub fn raw(self) -> u8 {
        self.0
    }
}

impl SocketId {
    /// Raw value as stored in an NQE.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// A sentinel id meaning "no socket yet" (used by `socket()` requests
    /// before the NSM side has allocated its socket).
    pub const NONE: SocketId = SocketId(u32::MAX);
}

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

impl fmt::Debug for NsmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nsm{}", self.0)
    }
}

impl fmt::Debug for QueueSetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qs{}", self.0)
    }
}

impl fmt::Debug for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == SocketId::NONE {
            write!(f, "sock(none)")
        } else {
            write!(f, "sock{}", self.0)
        }
    }
}

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Display for NsmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The *VM tuple* of the CoreEngine connection table: ⟨VM id, queue set id,
/// VM socket id⟩ (paper §4.3, Figure 6).
///
/// The same shape is reused for the *NSM tuple* with [`ConnKey::entity`]
/// holding the NSM id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ConnKey {
    /// Owning entity (a VM id for VM tuples, an NSM id for NSM tuples).
    pub entity: u8,
    /// Queue set within the entity's NK device.
    pub queue_set: QueueSetId,
    /// Socket id within the entity.
    pub socket: SocketId,
}

impl ConnKey {
    /// Build a VM-side connection key.
    pub fn vm(vm: VmId, queue_set: QueueSetId, socket: SocketId) -> Self {
        ConnKey {
            entity: vm.0,
            queue_set,
            socket,
        }
    }

    /// Build an NSM-side connection key.
    pub fn nsm(nsm: NsmId, queue_set: QueueSetId, socket: SocketId) -> Self {
        ConnKey {
            entity: nsm.0,
            queue_set,
            socket,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_none_sentinel_is_distinct() {
        assert_ne!(SocketId(0), SocketId::NONE);
        assert_eq!(SocketId(u32::MAX), SocketId::NONE);
    }

    #[test]
    fn conn_key_constructors_carry_entity() {
        let k = ConnKey::vm(VmId(3), QueueSetId(1), SocketId(42));
        assert_eq!(k.entity, 3);
        let k = ConnKey::nsm(NsmId(7), QueueSetId(0), SocketId(9));
        assert_eq!(k.entity, 7);
        assert_eq!(k.socket, SocketId(9));
    }

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", HostId(3)), "host3");
        assert_eq!(format!("{:?}", VmId(2)), "vm2");
        assert_eq!(format!("{:?}", NsmId(1)), "nsm1");
        assert_eq!(format!("{:?}", QueueSetId(0)), "qs0");
        assert_eq!(format!("{:?}", SocketId(5)), "sock5");
        assert_eq!(format!("{:?}", SocketId::NONE), "sock(none)");
    }
}
