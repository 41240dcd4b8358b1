//! Every metric the benchmark reports — name, unit, kind, direction, bound
//! — and the code that computes each from windows, spans and layer drives.
//!
//! `kind` keeps three worlds apart: `measured` is wall clock (expressed in
//! reference seconds, see `probe.rs`), `simulated`
//! is virtual time or a deterministic count (identical for identical
//! inputs), `modeled` is `ExecStats::modeled_speedup` only, `estimated` is
//! a count multiplied by a layer-drive cost.

use crate::apps::DT_US;
use crate::layers::LayerMetric;
use crate::stats::{median, percentile, spread};
use crate::trace::{layer_totals, Layer, Span};
use crate::workloads::{Spec, Window};

/// Where a number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Wall clock.
    Measured,
    /// Virtual time or a deterministic count.
    Simulated,
    /// Output of `ExecStats::modeled_speedup`.
    Modeled,
    /// A count times a layer-drive cost.
    Estimated,
}

impl Kind {
    /// The tag printed next to the metric.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Simulated => "simulated",
            Kind::Modeled => "modeled",
            Kind::Estimated => "estimated",
        }
    }
}

/// Definition of one end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Source of the number.
    pub kind: Kind,
    /// True when larger is better.
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen before
    /// `compare` calls it a regression; 0 means "must be identical".
    pub bound: f64,
    /// Whether the metric is part of `BENCHMARK.json`'s `end_to_end`.
    pub in_contract: bool,
}

/// The eight end-to-end metrics, in report order.
pub const END_TO_END: [EndToEndDef; 8] = [
    EndToEndDef {
        name: "ops_per_s",
        unit: "1/s",
        kind: Kind::Measured,
        higher_is_better: true,
        bound: 0.10,
        in_contract: true,
    },
    EndToEndDef {
        name: "goodput_MBps",
        unit: "MB/s",
        kind: Kind::Measured,
        higher_is_better: true,
        bound: 0.10,
        in_contract: true,
    },
    EndToEndDef {
        name: "virt_goodput_Gbps",
        unit: "Gbps",
        kind: Kind::Simulated,
        higher_is_better: true,
        bound: 0.0,
        in_contract: true,
    },
    EndToEndDef {
        name: "virt_op_p50_us",
        unit: "us",
        kind: Kind::Simulated,
        higher_is_better: false,
        bound: 0.0,
        in_contract: false,
    },
    EndToEndDef {
        name: "virt_op_p99_us",
        unit: "us",
        kind: Kind::Simulated,
        higher_is_better: false,
        bound: 0.0,
        in_contract: false,
    },
    EndToEndDef {
        name: "failed_ops_ratio",
        unit: "ratio",
        kind: Kind::Simulated,
        higher_is_better: false,
        bound: 0.0,
        in_contract: false,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        kind: Kind::Measured,
        higher_is_better: false,
        bound: 0.25,
        in_contract: true,
    },
    EndToEndDef {
        name: "peak_rss_MB",
        unit: "MB",
        kind: Kind::Measured,
        higher_is_better: false,
        bound: 0.10,
        in_contract: true,
    },
];

/// One reported value.
#[derive(Clone, Debug)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Source of the number.
    pub kind: Kind,
    /// The number.
    pub value: f64,
    /// `(max − min) / median` over the samples behind the value (0 for a
    /// single sample or a deterministic number).
    pub spread: f64,
    /// Samples behind the value (windows, batches or ops).
    pub samples: u64,
}

/// Everything end-to-end about one workload run.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// The eight metrics, in [`END_TO_END`] order.
    pub values: Vec<Value>,
    /// Ops completed in one window plus ops failed anywhere.
    pub attempted: u64,
    /// Ops failed anywhere (set-up, timed steps or drain, any window).
    pub failed: u64,
    /// Digest shared by every window.
    pub sim_digest: u64,
    /// Output checks that did not hold, over all windows.
    pub violations: Vec<String>,
    /// The highest latency percentile the sample supports ("≥ 10 beyond").
    pub top_percentile: Option<f64>,
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fold the windows of one workload run into its end-to-end metrics and
/// cross-window checks.
pub fn end_to_end(windows: &[Window], peak_rss_mb: f64) -> EndToEnd {
    let first = &windows[0];
    let mut violations: Vec<String> = windows
        .iter()
        .enumerate()
        .flat_map(|(i, w)| w.violations.iter().map(move |v| format!("window {i}: {v}")))
        .collect();
    for (i, w) in windows.iter().enumerate().skip(1) {
        if w.sim_digest != first.sim_digest {
            violations.push(format!(
                "window {i} digest {:016x} differs from window 0 {:016x}: the run is not deterministic",
                w.sim_digest, first.sim_digest
            ));
        }
    }
    let per_window = |f: &dyn Fn(&Window) -> f64| -> Vec<f64> { windows.iter().map(f).collect() };
    let ops_rate = per_window(&Window::ops_per_s);
    let mb_rate = per_window(&Window::goodput_mbps);
    let setup = per_window(&|w| w.setup_s);
    let n = windows.len() as u64;
    let lat = &first.timed.latency;
    let failed: u64 = windows.iter().map(|w| w.failed_ops).sum();
    let attempted = first.timed.ops + failed;
    let numbers = [
        (median(&ops_rate), spread(&ops_rate), n),
        (median(&mb_rate), spread(&mb_rate), n),
        (
            first.timed.bytes as f64 * 8.0 / 1e9 / first.virt_s(),
            0.0,
            1,
        ),
        (lat.percentile_ticks(50.0) * DT_US, 0.0, lat.len()),
        (lat.percentile_ticks(99.0) * DT_US, 0.0, lat.len()),
        (failed as f64 / attempted.max(1) as f64, 0.0, attempted),
        (median(&setup), spread(&setup), n),
        (peak_rss_mb, 0.0, 1),
    ];
    EndToEnd {
        values: END_TO_END
            .iter()
            .zip(numbers)
            .map(|(def, (value, spread, samples))| Value {
                name: def.name,
                unit: def.unit,
                kind: def.kind,
                value,
                spread,
                samples,
            })
            .collect(),
        attempted,
        failed,
        sim_digest: first.sim_digest,
        violations,
        top_percentile: crate::stats::highest_supported_percentile(lat.len() as usize),
    }
}

/// Definition of one per-layer metric: `(name, unit, kind, higher is
/// better)`. Layer-drive names come first, then the traced-run names.
pub const PER_LAYER: [(&str, &str, Kind, bool); 78] = [
    ("queue.spsc_ns", "ns", Kind::Measured, false),
    ("queue.spsc_xthread_ns", "ns", Kind::Measured, false),
    ("queue.unbounded_ns", "ns", Kind::Measured, false),
    ("queue.queueset_rtt_ns", "ns", Kind::Measured, false),
    ("shmem.msg_ns_64", "ns", Kind::Measured, false),
    ("shmem.msg_ns_4096", "ns", Kind::Measured, false),
    ("shmem.msg_ns_16384", "ns", Kind::Measured, false),
    ("engine.switch_ns_b1", "ns", Kind::Measured, false),
    ("engine.switch_ns_b64", "ns", Kind::Measured, false),
    ("engine.conntable_get_ns_1e1", "ns", Kind::Measured, false),
    ("engine.conntable_get_ns_1e3", "ns", Kind::Measured, false),
    ("engine.conntable_get_ns_1e5", "ns", Kind::Measured, false),
    ("engine.conntable_churn_ns_1e3", "ns", Kind::Measured, false),
    ("engine.conntable_churn_ns_1e5", "ns", Kind::Measured, false),
    ("netstack.seg_ns_bulk", "ns", Kind::Measured, false),
    ("netstack.conn_cycle_us", "us", Kind::Measured, false),
    ("netstack.demux_ns_1e3", "ns", Kind::Measured, false),
    ("fabric.vswitch_ns_per_frame", "ns", Kind::Measured, false),
    ("fabric.tor_ns_per_frame", "ns", Kind::Measured, false),
    ("fabric.uplink_xthread_ns", "ns", Kind::Measured, false),
    ("host.split_absorb_us_2", "us", Kind::Measured, false),
    ("host.split_absorb_us_8", "us", Kind::Measured, false),
    ("cluster.idle_step_us_t1", "us", Kind::Measured, false),
    ("cluster.idle_step_us_t2", "us", Kind::Measured, false),
    (
        "cluster.idle_step_us_t2_hostgran",
        "us",
        Kind::Measured,
        false,
    ),
    ("obs.idle_step_overhead_us", "us", Kind::Measured, false),
    ("guest.self_share", "ratio", Kind::Measured, false),
    ("guest.ns_per_call", "ns", Kind::Measured, false),
    ("guest.nqes_sent", "count", Kind::Simulated, false),
    ("engine.self_share", "ratio", Kind::Measured, false),
    ("engine.ns_per_nqe", "ns", Kind::Measured, false),
    ("engine.nqes_switched", "count", Kind::Simulated, false),
    ("engine.poll_rounds", "count", Kind::Simulated, false),
    ("engine.wakeups", "count", Kind::Simulated, false),
    ("engine.stalled_max", "count", Kind::Simulated, false),
    ("engine.conns_end", "count", Kind::Simulated, false),
    ("service.self_share", "ratio", Kind::Measured, false),
    ("service.ns_per_request", "ns", Kind::Measured, false),
    ("service.requests", "count", Kind::Simulated, false),
    ("service.responses", "count", Kind::Simulated, false),
    ("netstack.self_share", "ratio", Kind::Measured, false),
    ("netstack.ns_per_segment", "ns", Kind::Measured, false),
    ("netstack.segments", "count", Kind::Simulated, false),
    ("netstack.sockets_end", "count", Kind::Simulated, false),
    ("fabric.self_share", "ratio", Kind::Measured, false),
    ("fabric.ns_per_frame", "ns", Kind::Measured, false),
    ("fabric.frames", "count", Kind::Simulated, false),
    ("shmem.bytes_copied", "B", Kind::Simulated, false),
    ("shmem.est_share", "ratio", Kind::Estimated, false),
    ("queue.ops", "count", Kind::Simulated, false),
    ("queue.est_share", "ratio", Kind::Estimated, false),
    ("host.peer_share", "ratio", Kind::Measured, false),
    ("host.unattributed_share", "ratio", Kind::Measured, false),
    ("host.rounds_per_step", "count", Kind::Simulated, false),
    ("host.steps_per_s", "1/s", Kind::Measured, true),
    ("host.step_wall_p50_us", "us", Kind::Measured, false),
    ("host.step_wall_p99_us", "us", Kind::Measured, false),
    ("host.rate_decay", "ratio", Kind::Measured, true),
    ("host.allocs_per_op", "count", Kind::Measured, false),
    ("host.alloc_bytes_per_op", "B", Kind::Measured, false),
    ("cluster.steps_per_s", "1/s", Kind::Measured, true),
    ("cluster.step_wall_p50_us", "us", Kind::Measured, false),
    ("cluster.step_wall_p99_us", "us", Kind::Measured, false),
    ("cluster.app_share", "ratio", Kind::Measured, false),
    ("cluster.rounds_per_step", "count", Kind::Simulated, false),
    (
        "cluster.barrier_frames_per_step",
        "count",
        Kind::Simulated,
        false,
    ),
    ("cluster.hub_share", "ratio", Kind::Simulated, false),
    ("cluster.modeled_speedup", "x", Kind::Modeled, true),
    ("sim.virt_op_p50_us", "us", Kind::Simulated, false),
    ("sim.virt_op_p99_us", "us", Kind::Simulated, false),
    ("sim.virt_op_samples", "count", Kind::Simulated, false),
    ("sim.failed_ops", "count", Kind::Simulated, false),
    ("sim.steps", "count", Kind::Simulated, false),
    ("sim.ops", "count", Kind::Simulated, false),
    ("trace.overhead_pct", "%", Kind::Measured, false),
    ("probe.machine_speed", "ratio", Kind::Measured, true),
    ("probe.time_share", "ratio", Kind::Measured, false),
    ("trace.wired_matches_host", "count", Kind::Simulated, true),
];

/// The layer drives as reportable values (units and kinds come from
/// [`PER_LAYER`]).
pub fn layer_values(layers: &[LayerMetric]) -> Vec<Value> {
    PER_LAYER
        .iter()
        .filter_map(|&(name, unit, kind, _)| {
            layers.iter().find(|l| l.name == name).map(|l| Value {
                name,
                unit,
                kind,
                value: l.value,
                spread: 0.0,
                samples: crate::layers::BATCHES as u64,
            })
        })
        .collect()
}

/// Everything the traced run of one workload needs to become metrics.
pub struct TraceInputs<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// The untraced window on the real host or cluster.
    pub untraced: &'a Window,
    /// The traced window (on `WiredHost` for single-host workloads).
    pub traced: &'a Window,
    /// Spans of the traced window.
    pub spans: &'a [Span],
    /// `(allocations, bytes)` counted during the traced window.
    pub allocs: (u64, u64),
    /// Layer-drive results (also reported as they are).
    pub layers: &'a [LayerMetric],
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Compute every [`PER_LAYER`] metric for one workload. Names that do not
/// apply to the workload (host layers on a cluster workload, whose parts
/// are not reachable from outside; cluster metrics on a single host)
/// report 0.
pub fn per_layer(inp: &TraceInputs) -> Vec<Value> {
    let t = inp.traced;
    let totals = layer_totals(inp.spans);
    // Shares are of the window without the benchmark's own probe runs.
    let probe_ns = totals[Layer::Probe as usize].self_ns as f64;
    let root_ns = inp
        .spans
        .first()
        .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 - probe_ns);
    // Wall nanoseconds of the traced window → reference nanoseconds.
    let speed = t.machine_speed();
    let self_ns = |layers: &[Layer]| -> f64 {
        layers
            .iter()
            .map(|l| totals[*l as usize].self_ns as f64)
            .sum()
    };
    let share = |layers: &[Layer]| ratio(self_ns(layers), root_ns);
    // Self time per unit of work, in reference nanoseconds.
    let ref_ns_per = |layers: &[Layer], units: f64| ratio(self_ns(layers) * speed, units);
    let drive = |name: &str| -> f64 {
        inp.layers
            .iter()
            .find(|l| l.name == name)
            .map_or(0.0, |l| l.value)
    };
    let delta = |f: &dyn Fn(&crate::world::WorldCounts) -> u64| (f(&t.end) - f(&t.start)) as f64;
    let step_us: Vec<f64> = inp
        .spans
        .iter()
        .filter(|s| s.layer == Layer::Step)
        .map(|s| (s.end_ns - s.start_ns) as f64 * speed / 1e3)
        .collect();
    let is_cluster = t.exec.is_some();
    let wired = t.wired.unwrap_or_default();
    let ops = t.timed.ops as f64;
    let steps = t.steps as f64;
    let ref_wall_ns = steps * t.ref_s_per_step() * 1e9;
    let steps_per_s = ratio(1.0, t.ref_s_per_step());

    let msg_drive = match inp.spec.msg_size {
        64 => "shmem.msg_ns_64",
        4096 => "shmem.msg_ns_4096",
        _ => "shmem.msg_ns_16384",
    };
    let bytes_copied = delta(&|c| c.shmem_bytes_copied());
    let shmem_est = bytes_copied / 2.0 / inp.spec.msg_size as f64 * drive(msg_drive);
    let queue_ops = delta(&|c| c.queue_ops());
    let queue_est = queue_ops / 2.0 * drive("queue.spsc_ns");
    let exec = t.exec.unwrap_or_default();
    let u = inp.untraced;
    let lat = &u.timed.latency;
    // Only where the tracer sees the layers does "which layer" exist.
    let host_only = |v: f64| if is_cluster { 0.0 } else { v };
    let cluster_only = |v: f64| if is_cluster { v } else { 0.0 };

    let computed: Vec<(&str, f64)> = vec![
        ("guest.self_share", share(&[Layer::Guest])),
        (
            "guest.ns_per_call",
            ref_ns_per(&[Layer::Guest], totals[Layer::Guest as usize].calls as f64),
        ),
        ("guest.nqes_sent", delta(&|c| c.guest_nqes_sent)),
        ("engine.self_share", share(&[Layer::Engine])),
        (
            "engine.ns_per_nqe",
            ref_ns_per(
                &[Layer::Engine],
                host_only(delta(&|c| c.engine_nqes_switched)),
            ),
        ),
        ("engine.nqes_switched", delta(&|c| c.engine_nqes_switched)),
        ("engine.poll_rounds", delta(&|c| c.engine_poll_rounds)),
        ("engine.wakeups", delta(&|c| c.engine_wakeups)),
        ("engine.stalled_max", t.stalled_max as f64),
        ("engine.conns_end", t.end.engine_conns as f64),
        (
            "service.self_share",
            share(&[Layer::ServiceRequests, Layer::ServiceStack]),
        ),
        (
            "service.ns_per_request",
            ref_ns_per(
                &[Layer::ServiceRequests, Layer::ServiceStack],
                host_only(delta(&|c| c.service_requests)),
            ),
        ),
        ("service.requests", delta(&|c| c.service_requests)),
        ("service.responses", delta(&|c| c.service_responses)),
        ("netstack.self_share", share(&[Layer::Netstack])),
        (
            "netstack.ns_per_segment",
            ref_ns_per(
                &[Layer::Netstack],
                (wired.1.nsm_segments - wired.0.nsm_segments) as f64,
            ),
        ),
        (
            "netstack.segments",
            (wired.1.nsm_segments - wired.0.nsm_segments) as f64,
        ),
        ("netstack.sockets_end", wired.1.nsm_sockets as f64),
        ("fabric.self_share", share(&[Layer::Fabric])),
        (
            "fabric.ns_per_frame",
            ref_ns_per(&[Layer::Fabric], (wired.1.frames - wired.0.frames) as f64),
        ),
        ("fabric.frames", (wired.1.frames - wired.0.frames) as f64),
        ("shmem.bytes_copied", bytes_copied),
        ("shmem.est_share", ratio(shmem_est, ref_wall_ns)),
        ("queue.ops", queue_ops),
        ("queue.est_share", ratio(queue_est, ref_wall_ns)),
        (
            "host.peer_share",
            host_only(share(&[Layer::Tick, Layer::PeerStack])),
        ),
        (
            "host.unattributed_share",
            host_only(share(&[Layer::Step, Layer::Window])),
        ),
        (
            "host.rounds_per_step",
            host_only(ratio(delta(&|c| c.rounds), steps)),
        ),
        ("host.steps_per_s", host_only(steps_per_s)),
        (
            "host.step_wall_p50_us",
            host_only(percentile(&step_us, 50.0)),
        ),
        (
            "host.step_wall_p99_us",
            host_only(percentile(&step_us, 99.0)),
        ),
        ("host.rate_decay", t.rate_decay()),
        ("host.allocs_per_op", ratio(inp.allocs.0 as f64, ops)),
        ("host.alloc_bytes_per_op", ratio(inp.allocs.1 as f64, ops)),
        ("cluster.steps_per_s", cluster_only(steps_per_s)),
        (
            "cluster.step_wall_p50_us",
            cluster_only(percentile(&step_us, 50.0)),
        ),
        (
            "cluster.step_wall_p99_us",
            cluster_only(percentile(&step_us, 99.0)),
        ),
        ("cluster.app_share", cluster_only(share(&[Layer::Tick]))),
        (
            "cluster.rounds_per_step",
            cluster_only(ratio(delta(&|c| c.rounds), steps)),
        ),
        (
            "cluster.barrier_frames_per_step",
            ratio(delta(&|c| c.barrier_frames), steps),
        ),
        (
            "cluster.hub_share",
            ratio(exec.hub_work as f64, exec.serial_work as f64),
        ),
        (
            "cluster.modeled_speedup",
            cluster_only(exec.modeled_speedup),
        ),
        ("sim.virt_op_p50_us", lat.percentile_ticks(50.0) * DT_US),
        ("sim.virt_op_p99_us", lat.percentile_ticks(99.0) * DT_US),
        ("sim.virt_op_samples", lat.len() as f64),
        ("sim.failed_ops", (u.failed_ops + t.failed_ops) as f64),
        ("sim.steps", u.steps as f64),
        ("sim.ops", u.timed.ops as f64),
        (
            "trace.overhead_pct",
            100.0 * ratio(t.ref_s_per_step() - u.ref_s_per_step(), u.ref_s_per_step()),
        ),
        ("probe.machine_speed", u.machine_speed()),
        (
            "probe.time_share",
            ratio(
                u.segments.iter().map(|s| s.probe_after_ns as f64).sum(),
                u.wall_s * 1e9,
            ),
        ),
        (
            "trace.wired_matches_host",
            f64::from(u8::from(t.sim_digest == u.sim_digest)),
        ),
    ];

    PER_LAYER
        .iter()
        .map(|&(name, unit, kind, _)| {
            let value = computed
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| drive(name));
            Value {
                name,
                unit,
                kind,
                value,
                spread: 0.0,
                samples: 1,
            }
        })
        .collect()
}

/// Check the limits the benchmark contract puts on names and counts.
pub fn check_registry(workloads: usize) -> Result<(), String> {
    let ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    };
    let names = END_TO_END
        .iter()
        .map(|d| d.name)
        .chain(PER_LAYER.iter().map(|d| d.0));
    let mut seen = std::collections::BTreeSet::new();
    for n in names {
        if !ok(n) {
            return Err(format!("metric name {n:?} does not match [A-Za-z0-9_.-]+"));
        }
        if !seen.insert(n) {
            return Err(format!("metric name {n:?} is used twice"));
        }
    }
    if workloads > 8 || END_TO_END.len() > 16 || PER_LAYER.len() > 128 {
        return Err("more than 8 workloads, 16 end-to-end or 128 per-layer names".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_obeys_the_contract_limits() {
        assert_eq!(check_registry(crate::workloads::WORKLOADS.len()), Ok(()));
        assert!(check_registry(9).is_err());
    }
}
