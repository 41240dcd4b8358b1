//! Per-epoch request-completion latency, sampled from metric deltas.
//!
//! The datapath does not stamp individual NQEs (the paper's queue elements
//! are 32-byte descriptors, 5 bytes of them reserved; growing them for
//! telemetry would change the thing being measured). Instead each host's
//! [`HostFeed`] derives latency from the engine's per-VM switch counters at
//! every step close: newly *forwarded* request NQEs enqueue the current
//! virtual time, newly *delivered* completion NQEs dequeue the oldest stamp
//! and record `now - stamp`. FIFO matching over counter deltas is an
//! approximation — unsolicited deliveries (receive pushes) consume stamps
//! too — but it is cheap, needs no datapath surgery, and is exactly as
//! deterministic as the counters it reads: requests answered within the
//! step record 0, a handshake crossing the wire records whole step
//! multiples, and a VM starved behind a frozen or overloaded NSM records
//! the stall the operator actually cares about.
//!
//! At each recorder epoch boundary the cluster drains every host's
//! histogram in `HostId` order at the round barrier and seals an
//! [`EpochLatency`]: per-host summaries plus the cluster-wide merge
//! ([`nk_sim::Histogram::merge`] preserves moments and min/max exactly).

use nk_sim::Histogram;
use nk_types::{HostId, VmId};
use std::collections::{BTreeMap, VecDeque};

/// Stamps a feed will queue per VM before dropping new ones: bounds memory
/// against a VM whose requests never see completions (e.g. consumed-receive
/// notifications, which have no reply by design).
const OUTSTANDING_CAP: usize = 4096;

/// Headline quantiles of one histogram, in the recorded unit (ns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median, rounded down to whole ns.
    pub p50_ns: u64,
    /// 99th percentile, rounded down to whole ns.
    pub p99_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
}

serde::impl_serialize!(struct LatencySummary { count, p50_ns, p99_ns, max_ns });

impl LatencySummary {
    /// Summarize a histogram of ns samples.
    pub fn of(hist: &Histogram) -> Self {
        LatencySummary {
            count: hist.count(),
            p50_ns: hist.quantile(0.5) as u64,
            p99_ns: hist.quantile(0.99) as u64,
            max_ns: hist.max() as u64,
        }
    }
}

/// One sealed recorder epoch: per-host and cluster-wide completion-latency
/// summaries over `[start_ns, end_ns)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochLatency {
    /// Recorder epoch index (independent of the placement epoch: latency
    /// aggregation runs on its own virtual-time cadence so it works
    /// without a placement policy).
    pub epoch: u64,
    /// Virtual time the epoch opened.
    pub start_ns: u64,
    /// Virtual time the epoch sealed.
    pub end_ns: u64,
    /// Cluster-wide summary (the merge of every host's histogram).
    pub cluster: LatencySummary,
    /// Per-host summaries, ascending `HostId`.
    pub hosts: Vec<(HostId, LatencySummary)>,
}

serde::impl_serialize!(struct EpochLatency { epoch, start_ns, end_ns, cluster, hosts });

/// A host's capture feed: the per-host half of the flight recorder.
///
/// Lives inside `NetKernelHost` and is written only by the host's own step
/// (on whichever thread polls its shard); the caller's thread drains it at
/// the round barrier in `HostId` order, which is what keeps the merged record
/// independent of the thread count. A bare host (no cluster) reads its own
/// feed directly via [`HostFeed::summary`].
#[derive(Clone, Debug)]
pub struct HostFeed {
    enabled: bool,
    /// Last observed per-VM (forwarded, delivered) counters.
    prev: BTreeMap<VmId, (u64, u64)>,
    /// Virtual-time stamps of forwarded-but-unmatched request NQEs.
    outstanding: BTreeMap<VmId, VecDeque<u64>>,
    /// Latency samples (ns) since the feed was last drained.
    hist: Histogram,
    /// Fault applications since the feed was last drained.
    faults: Vec<(u64, u32)>,
}

impl Default for HostFeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostFeed {
    /// An enabled, empty feed.
    pub fn new() -> Self {
        HostFeed {
            enabled: true,
            prev: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            hist: Histogram::new(),
            faults: Vec::new(),
        }
    }

    /// Turn capture on or off. Off, every hook is a no-op.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether the feed captures.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Fold one VM's cumulative switch counters into the feed at a step
    /// close: new forwards enqueue `now_ns`, new deliveries dequeue the
    /// oldest stamp and record the difference.
    pub fn sample_vm(&mut self, now_ns: u64, vm: VmId, forwarded: u64, delivered: u64) {
        if !self.enabled {
            return;
        }
        let (prev_fwd, prev_dlv) = self
            .prev
            .insert(vm, (forwarded, delivered))
            .unwrap_or((0, 0));
        let new_fwd = forwarded.saturating_sub(prev_fwd);
        let new_dlv = delivered.saturating_sub(prev_dlv);
        if new_fwd == 0 && new_dlv == 0 {
            return;
        }
        let queue = self.outstanding.entry(vm).or_default();
        for _ in 0..new_fwd {
            if queue.len() < OUTSTANDING_CAP {
                queue.push_back(now_ns);
            }
        }
        for _ in 0..new_dlv {
            // Unsolicited deliveries beyond the queued requests are skipped
            // rather than recorded as zero: they match no request.
            let Some(stamp) = queue.pop_front() else {
                break;
            };
            self.hist.record(now_ns.saturating_sub(stamp) as f64);
        }
    }

    /// Record `faults` fault events applied at the host's step open.
    pub fn record_faults(&mut self, at_ns: u64, faults: u32) {
        if !self.enabled || faults == 0 {
            return;
        }
        self.faults.push((at_ns, faults));
    }

    /// The latency samples accumulated since the last [`HostFeed::take_hist`].
    pub fn hist(&self) -> &Histogram {
        &self.hist
    }

    /// Headline quantiles of the accumulated samples (for bare-host use).
    pub fn summary(&self) -> LatencySummary {
        LatencySummary::of(&self.hist)
    }

    /// Drain the accumulated histogram (the per-epoch seal).
    pub fn take_hist(&mut self) -> Histogram {
        std::mem::take(&mut self.hist)
    }

    /// Drain the fault applications captured since the last call.
    pub fn take_faults(&mut self) -> Vec<(u64, u32)> {
        std::mem::take(&mut self.faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Requests completed within the same step record 0; a completion
    /// arriving steps later records the virtual-time gap.
    #[test]
    fn delta_matching_records_step_gaps() {
        let mut feed = HostFeed::new();
        let vm = VmId(1);
        // Step at t=100: 2 forwarded, 1 delivered -> one 0ns sample.
        feed.sample_vm(100, vm, 2, 1);
        // Step at t=300: nothing new forwarded, the old request completes.
        feed.sample_vm(300, vm, 2, 2);
        assert_eq!(feed.hist().count(), 2);
        assert_eq!(feed.summary().max_ns, 200);
        // Unsolicited delivery (no queued request) is skipped, not zero.
        feed.sample_vm(400, vm, 2, 3);
        assert_eq!(feed.hist().count(), 2);
    }

    #[test]
    fn disabled_feed_captures_nothing() {
        let mut feed = HostFeed::new();
        feed.set_enabled(false);
        feed.sample_vm(100, VmId(1), 5, 5);
        feed.record_faults(100, 3);
        assert_eq!(feed.hist().count(), 0);
        assert!(feed.take_faults().is_empty());
    }

    #[test]
    fn take_hist_seals_and_resets() {
        let mut feed = HostFeed::new();
        feed.sample_vm(100, VmId(1), 1, 1);
        let sealed = feed.take_hist();
        assert_eq!(sealed.count(), 1);
        assert_eq!(feed.hist().count(), 0);
    }
}
