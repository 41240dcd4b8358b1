//! The calibrated performance model regenerating the paper's evaluation.
//!
//! The paper's throughput / RPS / CPU figures were measured on a physical
//! 100 G testbed. This module reproduces them from the
//! [`nk_sim::CostModel`]: every quantity is derived from the per-operation
//! cycle costs of the NetKernel data path (GuestLib copy + NQE translation,
//! CoreEngine switching, ServiceLib copy, stack TX/RX processing) combined
//! with Amdahl-style multi-core scaling and the NIC line rate. The
//! calibration targets are documented on the cost-model constants themselves;
//! here only the composition lives, so the *shape* of every figure (who wins,
//! where scaling saturates, how overhead grows) follows from the same
//! mechanics the paper describes.

use nk_sim::CostModel;
use nk_types::constants::{CYCLES_PER_SECOND, LINE_RATE_GBPS};
use nk_types::StackKind;

/// Direction of bulk traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrafficDirection {
    /// VM → network (`send()` path).
    Send,
    /// Network → VM (`recv()` path).
    Receive,
}

/// The performance model: a cost model plus testbed constants.
#[derive(Clone, Debug)]
pub struct PerfModel {
    /// Per-operation cycle costs.
    pub costs: CostModel,
    /// Core clock in cycles per second.
    pub cycles_per_sec: u64,
    /// NIC line rate in Gbps.
    pub nic_gbps: f64,
}

impl Default for PerfModel {
    fn default() -> Self {
        PerfModel {
            costs: CostModel::default(),
            cycles_per_sec: CYCLES_PER_SECOND,
            nic_gbps: LINE_RATE_GBPS,
        }
    }
}

impl PerfModel {
    /// A model with the default calibration.
    pub fn new() -> Self {
        Self::default()
    }

    fn stack_costs(&self, stack: StackKind, dir: TrafficDirection) -> nk_sim::cost::StackCosts {
        match (stack, dir) {
            (StackKind::Mtcp, TrafficDirection::Send) => self.costs.mtcp_tx,
            (StackKind::Mtcp, TrafficDirection::Receive) => self.costs.mtcp_rx,
            (_, TrafficDirection::Send) => self.costs.kernel_tx,
            (_, TrafficDirection::Receive) => self.costs.kernel_rx,
        }
    }

    fn serial_fraction(&self, stack: StackKind, dir: TrafficDirection) -> f64 {
        match (stack, dir) {
            (StackKind::Mtcp, _) => self.costs.mtcp_conn_serial,
            (_, TrafficDirection::Send) => self.costs.kernel_tx_serial,
            (_, TrafficDirection::Receive) => self.costs.kernel_rx_serial,
        }
    }

    fn single_stream_factor(&self, stack: StackKind, dir: TrafficDirection) -> f64 {
        match (stack, dir) {
            (StackKind::Mtcp, _) => 0.9,
            (_, TrafficDirection::Send) => self.costs.kernel_single_stream_tx,
            (_, TrafficDirection::Receive) => self.costs.kernel_single_stream_rx,
        }
    }

    /// Bulk TCP throughput in Gbps (Figures 13–16, 18, 19 and Table 4).
    ///
    /// * `streams` — number of parallel TCP streams;
    /// * `stack_cores` — cores running stack processing (the NSM's vCPUs for
    ///   NetKernel, the VM's vCPUs for Baseline);
    /// * `netkernel` — whether the NetKernel data path (hugepage copy + NQE
    ///   machinery, §4.5) is interposed;
    /// * `nsm_count` — number of NSMs serving the VM (Table 4); each NSM gets
    ///   `stack_cores` cores and scaling across NSMs is independent.
    #[allow(
        clippy::too_many_arguments,
        reason = "the parameters are the independent axes of the paper's throughput figures"
    )]
    pub fn bulk_throughput_gbps(
        &self,
        stack: StackKind,
        dir: TrafficDirection,
        msg_size: usize,
        streams: usize,
        stack_cores: usize,
        netkernel: bool,
        nsm_count: usize,
    ) -> f64 {
        let costs = self.stack_costs(stack, dir);
        let msg = msg_size.max(1) as u64;
        // Cycles to move one message through the stack. Under NetKernel the
        // stack side does not pay the guest's syscall + user copy (those run
        // on the VM's core) but pays the extra hugepage copy instead (§7.8).
        let mut stack_cost = costs.cost_one(msg);
        if netkernel {
            stack_cost =
                stack_cost - self.costs.guest_syscall - self.costs.copy_per_byte * msg as f64
                    + self.costs.nsm_copy(msg);
            if stack_cost < 1.0 {
                stack_cost = 1.0;
            }
        }
        let serial = self.serial_fraction(stack, dir);
        let speedup = CostModel::speedup(stack_cores, serial);
        let per_nsm_bytes_per_sec = self.cycles_per_sec as f64 / stack_cost * msg as f64 * speedup;
        let stack_cap_gbps = per_nsm_bytes_per_sec * 8.0 / 1e9 * nsm_count.max(1) as f64;

        // The guest side of the NetKernel path (syscall, NQE translation,
        // hugepage copy) runs on the VM's core and can itself become the
        // bottleneck for very small messages.
        let guest_cap_gbps = if netkernel {
            let guest_cost = self.costs.guest_data_path(msg);
            self.cycles_per_sec as f64 / guest_cost * msg as f64 * 8.0 / 1e9
        } else {
            f64::INFINITY
        };

        // Per-stream serialisation: a single TCP stream cannot saturate the
        // aggregate capacity (Figure 13 vs 15).
        let single = self.single_stream_factor(stack, dir);
        let base_single_core =
            self.cycles_per_sec as f64 / costs.cost_one(msg) * msg as f64 * 8.0 / 1e9;
        let stream_cap = streams as f64 * single * base_single_core;

        stack_cap_gbps
            .min(guest_cap_gbps)
            .min(stream_cap)
            .min(self.nic_gbps)
    }

    /// Requests per second for short-lived connections with small messages
    /// (Figures 17, 20, Tables 3 and 4).
    pub fn rps(
        &self,
        stack: StackKind,
        cores: usize,
        msg_size: usize,
        netkernel: bool,
        nsm_count: usize,
    ) -> f64 {
        let conn_cost = match stack {
            StackKind::Mtcp => self.costs.mtcp_conn,
            _ => self.costs.kernel_conn,
        };
        let serial = match stack {
            StackKind::Mtcp => self.costs.mtcp_conn_serial,
            _ => self.costs.kernel_conn_serial,
        };
        // Larger responses add copy + packet cost to each request (Figure 17
        // degrades slightly beyond 1 KB messages).
        let payload_cost = self.stack_costs(stack, TrafficDirection::Send).per_byte
            * msg_size as f64
            + self.costs.copy_per_byte * msg_size as f64;
        let mut per_request = conn_cost + payload_cost;
        if netkernel {
            // NQE round trips for the connection plus the data chunks; the
            // guest-side share runs on the VM core, so only ServiceLib's
            // translation and the extra copy land on the stack cores.
            per_request += 4.0 * self.costs.nqe_translate + self.costs.nsm_copy(msg_size as u64);
        }
        let speedup = CostModel::speedup(cores, serial);
        self.cycles_per_sec as f64 / per_request * speedup * nsm_count.max(1) as f64
    }

    /// Normalised CPU usage of NetKernel over Baseline at the same bulk
    /// throughput (Table 6). Counts the cycles of the VM and the NSM together
    /// for NetKernel, and the VM only for Baseline, as §7.8 does.
    pub fn cpu_overhead_throughput(&self, msg_size: usize) -> f64 {
        let msg = msg_size as u64;
        let baseline = self.costs.kernel_tx.cost_one(msg);
        let netkernel = self.costs.guest_data_path(msg)
            + (self.costs.kernel_tx.cost_one(msg)
                - self.costs.guest_syscall
                - self.costs.copy_per_byte * msg as f64)
            + self.costs.nsm_copy(msg)
            + 2.0 * self.costs.nqe_translate;
        netkernel / baseline
    }

    /// Normalised CPU usage of NetKernel over Baseline at the same request
    /// rate (Table 7).
    pub fn cpu_overhead_rps(&self, msg_size: usize) -> f64 {
        let baseline = self.costs.kernel_conn + self.costs.app_request;
        let netkernel = baseline
            + 4.0 * self.costs.nqe_translate
            + self.costs.nsm_copy(msg_size as u64)
            + self.costs.interrupt;
        netkernel / baseline
    }

    /// Hugepage copy-path throughput in Gbps for one core (Figure 12): the
    /// guest-side `send()` data path without any stack processing.
    pub fn memcopy_gbps(&self, msg_size: usize) -> f64 {
        let msg = msg_size as u64;
        let cost = self.costs.guest_data_path(msg) - self.costs.guest_syscall
            + self.costs.nqe_switch_per_nqe
            + self.costs.nsm_copy(msg);
        self.cycles_per_sec as f64 / cost * msg as f64 * 8.0 / 1e9
    }

    /// CoreEngine NQE switching rate in NQEs per second (Figure 11).
    pub fn nqe_switch_rate(&self, batch: usize) -> f64 {
        self.costs.switch_rate(batch, self.cycles_per_sec)
    }

    /// Mean response time in milliseconds for a closed-loop workload with
    /// `concurrency` outstanding requests against a server capable of
    /// `rps` requests per second (Little's law; Table 5).
    pub fn closed_loop_latency_ms(&self, concurrency: usize, rps: f64) -> f64 {
        if rps <= 0.0 {
            return f64::INFINITY;
        }
        concurrency as f64 / rps * 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> PerfModel {
        PerfModel::new()
    }

    #[test]
    fn single_stream_send_and_receive_match_figure_13_14_shape() {
        let m = m();
        let send = m.bulk_throughput_gbps(
            StackKind::Kernel,
            TrafficDirection::Send,
            16384,
            1,
            1,
            true,
            1,
        );
        let recv = m.bulk_throughput_gbps(
            StackKind::Kernel,
            TrafficDirection::Receive,
            16384,
            1,
            1,
            true,
            1,
        );
        // Paper: ~30.9 Gbps send, ~13.6 Gbps receive with 16 KB messages.
        assert!(send > 24.0 && send < 38.0, "send {send}");
        assert!(recv > 10.0 && recv < 18.0, "recv {recv}");
        assert!(send > 1.8 * recv, "RX must be much more expensive than TX");
        // Throughput grows with message size.
        let small =
            m.bulk_throughput_gbps(StackKind::Kernel, TrafficDirection::Send, 64, 1, 1, true, 1);
        assert!(small < send / 4.0);
    }

    #[test]
    fn netkernel_matches_baseline_for_bulk_traffic() {
        // Paper Figures 13–16: "NetKernel performs on par with Baseline".
        // For medium/large messages, where the per-stream serialisation caps
        // both configurations, the two are within a few percent; for tiny
        // messages NetKernel's stack core is slightly ahead because the
        // guest-side syscall/copy work moved to the VM's core.
        let m = m();
        for dir in [TrafficDirection::Send, TrafficDirection::Receive] {
            for msg in [4096usize, 8192, 16384] {
                let nk = m.bulk_throughput_gbps(StackKind::Kernel, dir, msg, 8, 1, true, 1);
                let base = m.bulk_throughput_gbps(StackKind::Kernel, dir, msg, 8, 1, false, 1);
                let ratio = nk / base;
                assert!(
                    ratio > 0.85 && ratio < 1.2,
                    "NetKernel/Baseline {ratio} at {msg}B {dir:?}"
                );
            }
        }
    }

    #[test]
    fn send_reaches_line_rate_with_three_cores() {
        let m = m();
        let at = |cores| {
            m.bulk_throughput_gbps(
                StackKind::Kernel,
                TrafficDirection::Send,
                8192,
                8,
                cores,
                true,
                1,
            )
        };
        assert!(at(1) < 60.0);
        assert!(at(2) > 75.0 && at(2) < 100.0);
        assert!(at(3) >= 99.0, "3 cores should hit line rate, got {}", at(3));
        assert_eq!(at(8), 100.0);
    }

    #[test]
    fn receive_needs_about_eight_cores_for_90g() {
        let m = m();
        let at = |cores| {
            m.bulk_throughput_gbps(
                StackKind::Kernel,
                TrafficDirection::Receive,
                8192,
                8,
                cores,
                true,
                1,
            )
        };
        assert!(at(1) < 20.0);
        let r8 = at(8);
        assert!(r8 > 80.0 && r8 <= 100.0, "8-core receive {r8}");
    }

    #[test]
    fn rps_matches_figure_20_shape() {
        let m = m();
        let kernel1 = m.rps(StackKind::Kernel, 1, 64, true, 1);
        let kernel8 = m.rps(StackKind::Kernel, 8, 64, true, 1);
        let mtcp1 = m.rps(StackKind::Mtcp, 1, 64, true, 1);
        let mtcp8 = m.rps(StackKind::Mtcp, 8, 64, true, 1);
        // Paper: ~70 K rps kernel single core scaling to ~400 K at 8 vCPUs
        // (5.7×); mTCP ~190 K to ~1.1 M.
        assert!(kernel1 > 55_000.0 && kernel1 < 90_000.0, "{kernel1}");
        assert!(kernel8 / kernel1 > 4.5 && kernel8 / kernel1 < 7.0);
        assert!(mtcp1 > 150_000.0 && mtcp1 < 250_000.0, "{mtcp1}");
        assert!(mtcp8 > 900_000.0 && mtcp8 < 1_500_000.0, "{mtcp8}");
        assert!(mtcp1 / kernel1 > 1.3, "mTCP must beat the kernel stack");
    }

    #[test]
    fn cpu_overhead_tables_have_the_right_shape() {
        let m = m();
        let bulk = m.cpu_overhead_throughput(8192);
        let rps = m.cpu_overhead_rps(64);
        // Table 6: noticeable overhead for bulk throughput (extra copy);
        // Table 7: mild overhead (5–9%) for short connections.
        assert!(bulk > 1.1 && bulk < 2.0, "bulk overhead {bulk}");
        assert!(rps > 1.02 && rps < 1.2, "rps overhead {rps}");
        assert!(bulk > rps);
    }

    #[test]
    fn memcopy_and_switch_rates_match_microbenchmarks() {
        let m = m();
        let small = m.memcopy_gbps(64);
        let large = m.memcopy_gbps(8192);
        // Figure 12: ~4.9 Gbps at 64 B, ~144 Gbps at 8 KB.
        assert!(small > 2.0 && small < 9.0, "{small}");
        assert!(large > 100.0 && large < 200.0, "{large}");
        // Figure 11 calibration is asserted in nk-sim; sanity-check here.
        assert!(m.nqe_switch_rate(256) > m.nqe_switch_rate(1) * 10.0);
    }

    #[test]
    fn closed_loop_latency_follows_littles_law() {
        let m = m();
        let rps = m.rps(StackKind::Kernel, 1, 64, true, 1);
        let lat = m.closed_loop_latency_ms(1000, rps);
        // Paper Table 5: mean ~16 ms at concurrency 1000.
        assert!(lat > 10.0 && lat < 20.0, "latency {lat}");
        assert_eq!(m.closed_loop_latency_ms(10, 0.0), f64::INFINITY);
    }
}
