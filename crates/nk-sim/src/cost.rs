//! The calibrated CPU cost model.
//!
//! The simulator regenerates the paper's evaluation by executing the
//! NetKernel mechanism (NQE translation, switching, hugepage copies, stack
//! processing) and charging each operation a number of CPU cycles against the
//! owning component's [`crate::CoreSet`]. The constants below are calibrated
//! against the absolute numbers the paper reports for its testbed (2.3 GHz
//! Xeon cores, 100 G NICs); the calibration targets are quoted next to each
//! constant. Absolute results are therefore "model cycles", but ratios and
//! trends (kernel vs mTCP, Baseline vs NetKernel, scaling with cores) emerge
//! from the same mechanism the paper describes.

use nk_types::constants::MSS;

/// Per-operation costs of one direction (TX or RX) of a network stack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StackCosts {
    /// Cycles per socket-level message (syscall + socket bookkeeping).
    pub per_msg: f64,
    /// Cycles per MSS-sized packet (segmentation, header processing, and for
    /// RX the softirq/interrupt work that makes receive much more expensive
    /// than send on the kernel stack — paper §7.3).
    pub per_pkt: f64,
    /// Cycles per payload byte (checksums and data touching).
    pub per_byte: f64,
}

impl StackCosts {
    /// Total cycles to process `bytes` of payload split into `msgs` messages.
    pub fn cost(&self, bytes: u64, msgs: u64) -> f64 {
        let pkts = bytes.div_ceil(MSS as u64).max(msgs);
        self.per_msg * msgs as f64 + self.per_pkt * pkts as f64 + self.per_byte * bytes as f64
    }

    /// Cycles to process a single message of `len` bytes.
    pub fn cost_one(&self, len: u64) -> f64 {
        self.cost(len, 1)
    }
}

/// The full cost model of the simulated host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    // ---- NetKernel machinery -------------------------------------------------
    /// GuestLib / ServiceLib cycles to translate one socket operation to or
    /// from an NQE (paper §4.2).
    pub nqe_translate: f64,
    /// Fixed cycles CoreEngine pays per poll/copy batch. Calibrated together
    /// with [`CostModel::nqe_switch_per_nqe`] against Figure 11: ~8 M NQEs/s
    /// unbatched and ~198 M NQEs/s at batch 256 on one 2.3 GHz core.
    pub nqe_switch_batch: f64,
    /// Cycles CoreEngine pays per switched NQE (two ring copies + table
    /// lookup).
    pub nqe_switch_per_nqe: f64,
    /// Cycles to allocate/free one chunk in the shared hugepage region.
    pub hugepage_alloc: f64,
    /// Cycles per byte for a hugepage copy (application ↔ hugepage, or
    /// hugepage ↔ stack buffer). Calibrated against Figure 12: ≈4.9 Gbps at
    /// 64 B messages and ≈144 Gbps at 8 KB messages on one core.
    pub copy_per_byte: f64,
    /// Guest-side syscall / kernel-space redirection cost per socket call
    /// (paper §4.1 chooses kernel-space redirection and accepts this cost).
    pub guest_syscall: f64,
    /// Cycles to deliver a virtual interrupt / wake-up (§4.6).
    pub interrupt: f64,

    // ---- Kernel-style stack (the paper's kernel stack NSM / Baseline guest stack)
    /// TX direction costs. Calibrated against Figures 13/15: ≈31 Gbps single
    /// stream and ≈55 Gbps with 8 streams at 16 KB messages on one core.
    pub kernel_tx: StackCosts,
    /// RX direction costs. Calibrated against Figures 14/16: ≈13.6 Gbps
    /// single stream and ≈17.4 Gbps with 8 streams at 16 KB messages.
    pub kernel_rx: StackCosts,
    /// Full cost of one short-lived connection (accept + request + response +
    /// close) on the kernel stack, excluding payload costs. Calibrated
    /// against Figure 17/20: ≈70 K requests/s on one core.
    pub kernel_conn: f64,
    /// Amdahl serial fraction of kernel-stack bulk TX across cores
    /// (Figure 18: line rate needs 3 cores; Table 4: 85 Gbps at 2 cores).
    pub kernel_tx_serial: f64,
    /// Amdahl serial fraction of kernel-stack bulk RX across cores
    /// (Figure 19: ≈91 Gbps at 8 cores).
    pub kernel_rx_serial: f64,
    /// Amdahl serial fraction for kernel-stack short connections
    /// (Figure 20: 5.7× speed-up at 8 cores).
    pub kernel_conn_serial: f64,
    /// Single-stream efficiency of kernel TX relative to the multi-stream
    /// aggregate (Figure 13 vs 15: 30.9 / 55.2).
    pub kernel_single_stream_tx: f64,
    /// Single-stream efficiency of kernel RX (Figure 14 vs 16: 13.6 / 17.4).
    pub kernel_single_stream_rx: f64,

    // ---- mTCP-style userspace stack -----------------------------------------
    /// TX direction costs of the mTCP-style NSM (batched, poll-mode I/O).
    pub mtcp_tx: StackCosts,
    /// RX direction costs of the mTCP-style NSM.
    pub mtcp_rx: StackCosts,
    /// Full cost of one short-lived connection on the mTCP-style stack.
    /// Calibrated against Figure 20 / Table 3: ≈190 K requests/s per core and
    /// ≈1.1 M requests/s with 8 cores.
    pub mtcp_conn: f64,
    /// Amdahl serial fraction of the mTCP stack (per-core partitioning makes
    /// it almost perfectly scalable).
    pub mtcp_conn_serial: f64,

    // ---- Application-side costs ----------------------------------------------
    /// Cycles the guest application spends per request (epoll dispatch,
    /// parsing, building the response) — applies to Baseline and NetKernel
    /// alike.
    pub app_request: f64,
    /// Cycles the application-gateway style VM spends per proxied request on
    /// top of the stack cost (use case 1, §6.1).
    pub ag_request: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            nqe_translate: 80.0,
            nqe_switch_batch: 190.0,
            nqe_switch_per_nqe: 10.0,
            hugepage_alloc: 60.0,
            copy_per_byte: 0.05,
            guest_syscall: 450.0,
            interrupt: 600.0,

            kernel_tx: StackCosts {
                per_msg: 1_600.0,
                per_pkt: 150.0,
                per_byte: 0.15,
            },
            kernel_rx: StackCosts {
                per_msg: 1_500.0,
                per_pkt: 400.0,
                per_byte: 0.62,
            },
            kernel_conn: 30_000.0,
            kernel_tx_serial: 0.176,
            kernel_rx_serial: 0.02,
            kernel_conn_serial: 0.055,
            kernel_single_stream_tx: 0.56,
            kernel_single_stream_rx: 0.78,

            mtcp_tx: StackCosts {
                per_msg: 500.0,
                per_pkt: 60.0,
                per_byte: 0.10,
            },
            mtcp_rx: StackCosts {
                per_msg: 500.0,
                per_pkt: 90.0,
                per_byte: 0.18,
            },
            mtcp_conn: 11_300.0,
            mtcp_conn_serial: 0.008,

            app_request: 3_000.0,
            ag_request: 9_000.0,
        }
    }
}

impl CostModel {
    /// Cycles CoreEngine spends switching `nqes` NQEs polled in batches of
    /// `batch`.
    pub fn switch_cost(&self, nqes: u64, batch: usize) -> f64 {
        if nqes == 0 {
            return 0.0;
        }
        let batch = batch.max(1) as u64;
        let batches = nqes.div_ceil(batch);
        self.nqe_switch_batch * batches as f64 + self.nqe_switch_per_nqe * nqes as f64
    }

    /// CoreEngine NQE switching throughput (NQEs per second per core) for a
    /// given batch size — the quantity Figure 11 reports.
    pub fn switch_rate(&self, batch: usize, cycles_per_sec: u64) -> f64 {
        let per_nqe = self.switch_cost(batch as u64, batch) / batch.max(1) as f64;
        cycles_per_sec as f64 / per_nqe
    }

    /// Cycles for the guest-side data path of one `send()`/`recv()` of `len`
    /// bytes: syscall, NQE translation, hugepage allocation and copy.
    pub fn guest_data_path(&self, len: u64) -> f64 {
        self.guest_syscall
            + self.nqe_translate
            + self.hugepage_alloc
            + self.copy_per_byte * len as f64
    }

    /// Cycles for the NSM-side extra copy between the hugepage region and the
    /// stack buffers (the overhead §7.8 attributes the throughput cost to).
    pub fn nsm_copy(&self, len: u64) -> f64 {
        self.nqe_translate + self.copy_per_byte * len as f64
    }

    /// Effective parallel speed-up of `cores` cores under Amdahl's law with
    /// serial fraction `serial`.
    pub fn speedup(cores: usize, serial: f64) -> f64 {
        let n = cores.max(1) as f64;
        1.0 / (serial + (1.0 - serial) / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nk_types::constants::CYCLES_PER_SECOND;

    #[test]
    fn stack_cost_accounts_messages_packets_bytes() {
        let c = StackCosts {
            per_msg: 100.0,
            per_pkt: 10.0,
            per_byte: 0.5,
        };
        // 1 message of 100 bytes = 1 packet.
        assert!((c.cost_one(100) - (100.0 + 10.0 + 50.0)).abs() < 1e-9);
        // 3000 bytes = 3 packets (MSS 1460).
        assert!((c.cost(3000, 1) - (100.0 + 30.0 + 1500.0)).abs() < 1e-9);
        // At least one packet per message even for tiny messages.
        assert!((c.cost(4 * 10, 4) - (400.0 + 40.0 + 20.0)).abs() < 1e-9);
    }

    #[test]
    fn switch_cost_scales_with_batching() {
        let m = CostModel::default();
        let unbatched = m.switch_cost(1000, 1) / 1000.0;
        let batched = m.switch_cost(1000, 64) / 1000.0;
        assert!(
            unbatched > 3.0 * batched,
            "batching must amortise the fixed cost"
        );
        assert_eq!(m.switch_cost(0, 16), 0.0);
    }

    #[test]
    fn switch_rate_matches_figure_11_calibration() {
        let m = CostModel::default();
        // Figure 11: ~8 M NQEs/s unbatched, ~41 M at batch 4, ~198 M at 256.
        let r1 = m.switch_rate(1, CYCLES_PER_SECOND) / 1e6;
        let r4 = m.switch_rate(4, CYCLES_PER_SECOND) / 1e6;
        let r256 = m.switch_rate(256, CYCLES_PER_SECOND) / 1e6;
        assert!(
            r1 > 6.0 && r1 < 16.0,
            "unbatched rate {r1} M/s out of range"
        );
        assert!(r4 > 30.0 && r4 < 55.0, "batch-4 rate {r4} M/s out of range");
        assert!(
            r256 > 150.0 && r256 < 230.0,
            "batch-256 rate {r256} M/s out of range"
        );
        assert!(r1 < r4 && r4 < r256);
    }

    #[test]
    fn kernel_rx_is_costlier_than_tx() {
        let m = CostModel::default();
        assert!(m.kernel_rx.cost_one(16384) > 1.5 * m.kernel_tx.cost_one(16384));
    }

    #[test]
    fn mtcp_connections_are_cheaper_than_kernel() {
        let m = CostModel::default();
        assert!(m.mtcp_conn * 2.0 < m.kernel_conn);
        // Figure 20 calibration: ~70 K rps/core kernel, ~190 K rps/core mTCP.
        let kernel_rps = CYCLES_PER_SECOND as f64 / (m.kernel_conn + m.app_request);
        let mtcp_rps = CYCLES_PER_SECOND as f64 / (m.mtcp_conn + m.app_request);
        assert!(
            kernel_rps > 55_000.0 && kernel_rps < 85_000.0,
            "kernel {kernel_rps}"
        );
        assert!(
            mtcp_rps > 150_000.0 && mtcp_rps < 230_000.0,
            "mtcp {mtcp_rps}"
        );
    }

    #[test]
    fn amdahl_speedup_behaviour() {
        assert!((CostModel::speedup(1, 0.1) - 1.0).abs() < 1e-12);
        assert!(CostModel::speedup(8, 0.0) > 7.99);
        let s = CostModel::speedup(8, 0.055);
        assert!(s > 5.3 && s < 6.3, "kernel conn speedup at 8 cores: {s}");
    }

    #[test]
    fn guest_data_path_is_dominated_by_copy_for_large_messages() {
        let m = CostModel::default();
        let small = m.guest_data_path(64);
        let large = m.guest_data_path(8192);
        assert!(large > small);
        assert!(large - small >= 0.04 * (8192.0 - 64.0));
    }
}
