//! Constants describing the reproduced testbed.
//!
//! The values mirror the evaluation environment of the paper (§5, §7.1):
//! QEMU/KVM hosts with Xeon E5-2698 v3 cores at 2.3 GHz, Mellanox 100 G NICs,
//! 2 MB hugepages (128 pages per VM–NSM pair) and an NQE batch size of 4.

/// Size of one shared hugepage, in bytes (2 MB, §5 "Queues and Huge Pages").
pub const HUGEPAGE_SIZE: usize = 2 * 1024 * 1024;

/// Default number of hugepages shared between a VM and its NSM (§5).
pub const DEFAULT_HUGEPAGE_COUNT: usize = 128;

/// Default NQE batch size used by CoreEngine and the NK devices (§7.2 uses a
/// batch size of 4 for all experiments).
pub const DEFAULT_BATCH_SIZE: usize = 4;

/// Default capacity (in NQEs) of each lockless queue in a queue set.
///
/// Capacity bounds backpressure, not memory: an SPSC ring writes its slots
/// in turn, but the host starts every empty ring that has left its first
/// 4-KiB page over at slot 0 on the first round of a step and on every
/// round that does no work (`nk_queue::rewind_set`), so a ring's resident
/// memory is that page plus one round's traffic. A queue set of four
/// 512-slot rings of 32-B NQEs reserves
/// 64 KiB (4096 slots reserved 512 KiB, all of it resident once that many
/// NQEs had passed). The fullest ring of nkbench's workloads (12-s windows,
/// seeds 1–2) held 256 NQEs on `rpc` (its set-up burst: 4 VMs × 64
/// `socket` + `connect` in one tick, two VMs per NSM), 64 on `bulk` and on
/// `churn` and 4 on `xhost_t1`, so none fills; a ring that does parks its
/// responses instead of dropping them.
pub const DEFAULT_QUEUE_CAPACITY: usize = 512;

/// Default bound on scheduler rounds per host step: the host polls every
/// datapath component repeatedly until a full round reports no work (a
/// request → NSM → response round trip therefore completes within one step
/// regardless of queue depth), giving up after this many rounds so a
/// misbehaving component cannot stall virtual time.
pub const DEFAULT_POLL_ROUNDS: usize = 16;

/// Line rate of the physical NIC in gigabits per second (Mellanox CX-4 100G).
pub const LINE_RATE_GBPS: f64 = 100.0;

/// Cores dedicated to CoreEngine NQE switching on every host (the paper
/// always uses 1).
pub const CORE_ENGINE_CORES: usize = 1;

/// Clock frequency of one physical core in cycles per second (2.3 GHz Xeon
/// E5-2698 v3, §7.1).
pub const CYCLES_PER_SECOND: u64 = 2_300_000_000;

/// Ethernet MTU used by the virtual fabric.
pub const MTU: usize = 1500;

/// TCP maximum segment size corresponding to [`MTU`] (IPv4 + TCP headers).
pub const MSS: usize = 1460;

/// Default per-socket send buffer budget in bytes (matches a common Linux
/// `wmem_default`-style sizing of 256 KB).
pub const DEFAULT_SEND_BUF: usize = 256 * 1024;

/// Default per-socket receive buffer budget in bytes.
pub const DEFAULT_RECV_BUF: usize = 256 * 1024;

/// Guest-allocated socket ids live below this bit; ids with the bit set are
/// allocated by the NSM for the connections it accepts, so the two sides
/// never collide without a round trip (§4.6 pipelining).
pub const NSM_SOCKET_ID_BASE: u32 = 0x8000_0000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hugepage_region_default_size_is_256mb() {
        assert_eq!(HUGEPAGE_SIZE * DEFAULT_HUGEPAGE_COUNT, 256 * 1024 * 1024);
    }

    /// Compile-time sanity relation between MSS and MTU, kept as a test so
    /// a bad edit to either constant fails loudly.
    #[test]
    #[allow(
        clippy::assertions_on_constants,
        reason = "asserting a relation between two constants is the whole test"
    )]
    fn mss_fits_mtu() {
        assert!(MSS + 40 <= MTU + 14);
        assert!(MSS < MTU);
    }
}
