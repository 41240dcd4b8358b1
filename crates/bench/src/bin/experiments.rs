//! Regenerates every table and figure of the paper's evaluation (§6–§7).
//!
//! Run all experiments:
//!
//! ```text
//! cargo run --release -p nk-bench --bin experiments
//! ```
//!
//! or a single one by name, e.g. `cargo run -p nk-bench --bin experiments fig13`.
//! Output is a table per experiment in the same units the paper reports.
//! Every number printed is deterministic (the `PerfModel`, or counts and
//! virtual time from a seeded scenario), so the whole stdout is pinned in
//! `tests/golden/experiments.stdout` — that table is the one record of a
//! run. Wall-clock measurement lives in `examples/nkbench`.

#![forbid(unsafe_code)]

use nk_host::{PerfModel, TrafficDirection};
use nk_sim::TokenBucket;
use nk_types::{ClusterConfig, HostId, NsmId, StackKind, VmId};
use nk_workload::rows::{self, kernel_host};
use nk_workload::{AgTrace, AgTraceConfig, BurstyClient, Scenario, ScenarioConfig};

/// Every experiment in run order, under the CLI names that select it.
type Experiment = (&'static [&'static str], fn(&PerfModel));
const EXPERIMENTS: &[Experiment] = &[
    (&["fig07"], |_| fig07_ag_trace()),
    (&["fig08", "tab02"], fig08_tab02_multiplexing),
    (&["fig09"], |_| fig09_fair_sharing()),
    (&["tab03"], tab03_mtcp_nginx),
    (&["fig10"], fig10_shared_memory),
    (&["fig11"], fig11_nqe_switching),
    (&["fig12"], fig12_memcopy),
    (&["fig13", "fig14"], fig13_14_single_stream),
    (&["fig15", "fig16"], fig15_16_multi_stream),
    (&["fig17"], fig17_short_connections),
    (&["fig18", "fig19"], fig18_19_stack_scaling),
    (&["fig20"], fig20_rps_scaling),
    (&["tab04"], tab04_nsm_scaling),
    (&["fig21"], |_| fig21_isolation()),
    (&["tab05"], tab05_latency),
    (&["tab06"], tab06_cpu_overhead_throughput),
    (&["tab07"], tab07_cpu_overhead_rps),
    (&["ctrl01"], |_| ctrl01_control_plane()),
    (&["clu01"], |_| clu01_cluster_migration()),
    (&["wm01"], |_| wm01_warm_vs_drained()),
    (&["ev01"], |_| ev01_evacuation()),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.0).copied().collect();
    // Every argument is checked before anything runs: a typo beside a good
    // name must fail loudly, not print the good one and exit green.
    let known = |arg: &String| arg == "all" || names.contains(&arg.as_str());
    if let Some(miss) = args.iter().find(|arg| !known(arg)) {
        eprintln!("no experiment named {miss:?} — choose from \"all\" or {names:?}");
        std::process::exit(2);
    }
    let model = PerfModel::new();
    for (names, run) in EXPERIMENTS {
        let wanted = |arg: &String| arg == "all" || names.contains(&arg.as_str());
        if args.is_empty() || args.iter().any(wanted) {
            run(&model);
        }
    }
}

/// Print a table with a title, a header row and data rows, with columns
/// aligned on width.
fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a float with the given number of decimals.
fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Figure 7: bursty traffic of the three most-utilised application gateways.
fn fig07_ag_trace() {
    let trace = AgTrace::generate(&AgTraceConfig::default());
    let top = trace.top_utilised(3);
    let rows: Vec<Vec<String>> = (0..trace.minutes())
        .step_by(5)
        .map(|m| {
            let mut row = vec![m.to_string()];
            for &g in &top {
                row.push(f(trace.rates[g][m], 1));
            }
            row
        })
        .collect();
    print_table(
        "Figure 7: normalised RPS of the three most-utilised AGs (1-min bins, 5-min samples)",
        &["minute", "AG1", "AG2", "AG3"],
        &rows,
    );
    for (i, &g) in top.iter().enumerate() {
        println!(
            "AG{}: mean {:.1}, peak {:.1}, utilisation {:.0}%",
            i + 1,
            trace.mean_of(g),
            trace.peak_of(g),
            100.0 * trace.mean_of(g) / trace.peak_rps
        );
    }
}

/// Figure 8 + Table 2: multiplexing bursty AGs onto a shared NSM.
fn fig08_tab02_multiplexing(model: &PerfModel) {
    let trace = AgTrace::generate(&AgTraceConfig::default());
    let top = trace.top_utilised(3);

    // Baseline: each of the 3 AGs is provisioned for its own peak: 4 cores
    // each (stack + app), 12 cores total. NetKernel: each AG keeps 1 core for
    // application logic, a shared 5-core kernel-stack NSM absorbs the
    // aggregate, plus 1 CoreEngine core: 9 cores total.
    let baseline_cores = 12.0;
    let netkernel_cores = 9.0;
    let aggregate_mean: f64 = top.iter().map(|&g| trace.mean_of(g)).sum();
    let aggregate_peak = trace.aggregate_peak(&top);
    let rows = vec![
        vec![
            "Baseline (peak-provisioned)".into(),
            f(baseline_cores, 0),
            f(aggregate_mean / baseline_cores, 2),
        ],
        vec![
            "NetKernel (shared 5-core NSM)".into(),
            f(netkernel_cores, 0),
            f(aggregate_mean / netkernel_cores, 2),
        ],
    ];
    print_table(
        "Figure 8: per-core RPS serving the 3 most-utilised AGs (normalised units)",
        &["configuration", "cores", "RPS per core"],
        &rows,
    );
    println!(
        "per-core RPS improvement: {:.0}%  (aggregate peak {:.1} fits in the shared NSM)",
        100.0 * (baseline_cores / netkernel_cores - 1.0),
        aggregate_peak
    );

    // Table 2: a 32-core machine. Baseline reserves 2 cores per AG → 16 AGs.
    // NetKernel: 1 core CoreEngine + 2-core kernel-stack NSM + 1 core per AG.
    let machine_cores = 32usize;
    let baseline_ags = machine_cores / 2;
    let nsm_cores = 2usize;
    let ce_cores = 1usize;
    let ag_budget = machine_cores - nsm_cores - ce_cores;
    // The NSM must stay under 60% utilisation for ~97% of minutes; its
    // capacity is what two dedicated stack cores can serve.
    let nsm_capacity_rps = 2.0 * model.rps(StackKind::Kernel, 1, 64, true, 1);
    // Express AG load in the same units: an AG's provisioned peak equals a
    // tenth of one core's stack capacity (the trace's point is precisely
    // that per-AG utilisation is far below what its reserved cores could do).
    let scale = model.rps(StackKind::Kernel, 1, 64, true, 1) * 0.10 / 100.0;
    let big_trace = AgTrace::generate(&AgTraceConfig {
        gateways: 64,
        ..AgTraceConfig::default()
    });
    // Scale rates into RPS and pack under the 60%/97% constraint.
    let mut scaled = big_trace.clone();
    for series in scaled.rates.iter_mut() {
        for v in series.iter_mut() {
            *v *= scale;
        }
    }
    let packable = scaled.packable_ags(nsm_capacity_rps, 0.6, 0.97);
    let netkernel_ags = packable.min(ag_budget);
    let rows = vec![
        vec!["Total cores".into(), "32".into(), "32".into()],
        vec!["NSM cores".into(), "0".into(), nsm_cores.to_string()],
        vec!["CoreEngine cores".into(), "0".into(), ce_cores.to_string()],
        vec![
            "# AGs hosted".into(),
            baseline_ags.to_string(),
            netkernel_ags.to_string(),
        ],
    ];
    print_table(
        "Table 2: AGs per 32-core machine (Baseline vs NetKernel)",
        &["", "Baseline", "NetKernel"],
        &rows,
    );
    // Hosting the same number of AGs on Baseline would need 2 cores each.
    let baseline_cores_for_same = netkernel_ags as f64 * 2.0;
    println!(
        "NetKernel hosts {:.0}% more AGs per machine; cores saved for this workload: {:.0}%",
        100.0 * (netkernel_ags as f64 / baseline_ags as f64 - 1.0),
        100.0 * (1.0 - machine_cores as f64 / baseline_cores_for_same).max(0.0)
    );
}

/// Figure 9: VM-level fair bandwidth sharing.
fn fig09_fair_sharing() {
    // A well-behaved VM A always uses 8 connections; a selfish VM B uses 8,
    // 16 and 24. Baseline TCP divides the bottleneck per *flow*; an NSM
    // whose cc is `VmShared` divides it per *VM* via each VM's shared
    // congestion window (nk-netstack::cc::VmSharedCc).
    let rows: Vec<Vec<String>> = [8usize, 16, 24]
        .iter()
        .map(|&b_flows| {
            let a_flows = 8usize;
            let baseline_a = 100.0 * a_flows as f64 / (a_flows + b_flows) as f64;
            let netkernel_a = 50.0;
            vec![
                format!("8 : {b_flows}"),
                format!("{:.0}% / {:.0}%", baseline_a, 100.0 - baseline_a),
                format!("{:.0}% / {:.0}%", netkernel_a, 100.0 - netkernel_a),
            ]
        })
        .collect();
    print_table(
        "Figure 9: share of aggregate throughput (VM A / VM B)",
        &[
            "connections A:B",
            "Baseline (flow-level)",
            "NetKernel fair-share NSM (VM-level)",
        ],
        &rows,
    );
}

/// Table 3: unmodified nginx served by the kernel-stack vs mTCP NSM.
fn tab03_mtcp_nginx(model: &PerfModel) {
    let rows: Vec<Vec<String>> = [1usize, 2, 4]
        .iter()
        .map(|&cores| {
            let kernel = model.rps(StackKind::Kernel, cores, 64, true, 1);
            let mtcp = model.rps(StackKind::Mtcp, cores, 64, true, 1);
            vec![
                cores.to_string(),
                f(kernel / 1e3, 1),
                f(mtcp / 1e3, 1),
                f(mtcp / kernel, 2),
            ]
        })
        .collect();
    print_table(
        "Table 3: RPS (x1000) of an unmodified web server, 64B responses, concurrency 100",
        &["vCPUs", "kernel-stack NSM", "mTCP NSM", "speed-up"],
        &rows,
    );
}

/// Figure 10: shared-memory NSM for colocated VMs.
fn fig10_shared_memory(model: &PerfModel) {
    let sizes = [64usize, 128, 256, 512, 1024, 2048, 4096, 8192];
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .map(|&msg| {
            // Baseline: TCP through the full stack between two colocated VMs
            // (sender 2 cores, receiver is the more expensive side).
            let tcp = |dir, cores| {
                model.bulk_throughput_gbps(StackKind::Kernel, dir, msg, 8, cores, false, 1)
            };
            let baseline = tcp(TrafficDirection::Receive, 5).min(tcp(TrafficDirection::Send, 2));
            // NetKernel shared-memory NSM: two hugepage copy engines (2 NSM
            // cores), no TCP processing, capped by the 100G fabric.
            let shm = (2.0 * model.memcopy_gbps(msg)).min(100.0);
            vec![msg.to_string(), f(baseline, 1), f(shm, 1)]
        })
        .collect();
    print_table(
        "Figure 10: colocated-VM throughput (Gbps), Baseline TCP vs shared-memory NSM",
        &["msg size (B)", "Baseline", "NetKernel shm NSM"],
        &rows,
    );
}

/// Figure 11: CoreEngine NQE switching throughput vs batch size.
fn fig11_nqe_switching(model: &PerfModel) {
    let rows: Vec<Vec<String>> = [1usize, 2, 4, 8, 16, 32, 64, 128, 256]
        .iter()
        .map(|&batch| vec![batch.to_string(), f(model.nqe_switch_rate(batch) / 1e6, 1)])
        .collect();
    print_table(
        "Figure 11: CoreEngine switching throughput (million NQEs/s, one core)",
        &["batch size", "M NQEs/s"],
        &rows,
    );
}

/// Figure 12: hugepage copy-path throughput vs message size.
fn fig12_memcopy(model: &PerfModel) {
    let rows: Vec<Vec<String>> = [64usize, 128, 256, 512, 1024, 2048, 4096, 8192]
        .iter()
        .map(|&msg| vec![msg.to_string(), f(model.memcopy_gbps(msg), 1)])
        .collect();
    print_table(
        "Figure 12: hugepage message-copy throughput (Gbps, one core)",
        &["msg size (B)", "Gbps"],
        &rows,
    );
}

fn bulk_rows(
    model: &PerfModel,
    dir: TrafficDirection,
    streams: usize,
    cores: usize,
) -> Vec<Vec<String>> {
    [64usize, 128, 256, 512, 1024, 2048, 4096, 8192, 16384]
        .iter()
        .map(|&msg| {
            let baseline =
                model.bulk_throughput_gbps(StackKind::Kernel, dir, msg, streams, cores, false, 1);
            let netkernel =
                model.bulk_throughput_gbps(StackKind::Kernel, dir, msg, streams, cores, true, 1);
            vec![msg.to_string(), f(baseline, 1), f(netkernel, 1)]
        })
        .collect()
}

/// Figures 13 and 14: single-stream send/receive, 1-vCPU VM and NSM.
fn fig13_14_single_stream(model: &PerfModel) {
    print_table(
        "Figure 13: single-stream TCP send throughput (Gbps), kernel-stack NSM, 1 vCPU",
        &["msg size (B)", "Baseline", "NetKernel"],
        &bulk_rows(model, TrafficDirection::Send, 1, 1),
    );
    print_table(
        "Figure 14: single-stream TCP receive throughput (Gbps), kernel-stack NSM, 1 vCPU",
        &["msg size (B)", "Baseline", "NetKernel"],
        &bulk_rows(model, TrafficDirection::Receive, 1, 1),
    );
}

/// Figures 15 and 16: 8-stream send/receive, 1-vCPU VM and NSM.
fn fig15_16_multi_stream(model: &PerfModel) {
    print_table(
        "Figure 15: 8-stream TCP send throughput (Gbps), kernel-stack NSM, 1 vCPU",
        &["msg size (B)", "Baseline", "NetKernel"],
        &bulk_rows(model, TrafficDirection::Send, 8, 1),
    );
    print_table(
        "Figure 16: 8-stream TCP receive throughput (Gbps), kernel-stack NSM, 1 vCPU",
        &["msg size (B)", "Baseline", "NetKernel"],
        &bulk_rows(model, TrafficDirection::Receive, 8, 1),
    );
}

/// Figure 17: short TCP connections vs message size.
fn fig17_short_connections(model: &PerfModel) {
    let rows: Vec<Vec<String>> = [64usize, 128, 256, 512, 1024, 2048, 4096, 8192]
        .iter()
        .map(|&msg| {
            let baseline = model.rps(StackKind::Kernel, 1, msg, false, 1);
            let netkernel = model.rps(StackKind::Kernel, 1, msg, true, 1);
            let gbps = netkernel * msg as f64 * 8.0 / 1e9;
            vec![
                msg.to_string(),
                f(baseline / 1e3, 1),
                f(netkernel / 1e3, 1),
                f(gbps, 2),
            ]
        })
        .collect();
    print_table(
        "Figure 17: short-connection RPS (x1000) and goodput, kernel-stack NSM, 1 vCPU",
        &[
            "msg size (B)",
            "Baseline RPS",
            "NetKernel RPS",
            "NetKernel Gbps",
        ],
        &rows,
    );
}

/// Figures 18 and 19: bulk throughput scaling with vCPUs (8 KB messages).
fn fig18_19_stack_scaling(model: &PerfModel) {
    // 8 streams of 8 KB messages through one kernel-stack NSM.
    let gbps = |dir, cores, netkernel| {
        model.bulk_throughput_gbps(StackKind::Kernel, dir, 8192, 8, cores, netkernel, 1)
    };
    let (send, recv) = (TrafficDirection::Send, TrafficDirection::Receive);
    let rows: Vec<Vec<String>> = (1usize..=8)
        .map(|cores| {
            vec![
                cores.to_string(),
                f(gbps(send, cores, false), 1),
                f(gbps(send, cores, true), 1),
                f(gbps(recv, cores, false), 1),
                f(gbps(recv, cores, true), 1),
            ]
        })
        .collect();
    print_table(
        "Figures 18/19: 8-stream throughput (Gbps) vs vCPUs, 8KB messages",
        &[
            "vCPUs",
            "send Baseline",
            "send NetKernel",
            "recv Baseline",
            "recv NetKernel",
        ],
        &rows,
    );
}

/// Figure 20: short-connection scaling with vCPUs, kernel vs mTCP NSM.
fn fig20_rps_scaling(model: &PerfModel) {
    let rows: Vec<Vec<String>> = [1usize, 2, 3, 4, 5, 6, 7, 8]
        .iter()
        .map(|&cores| {
            let baseline = model.rps(StackKind::Kernel, cores, 64, false, 1);
            let kernel = model.rps(StackKind::Kernel, cores, 64, true, 1);
            let mtcp = model.rps(StackKind::Mtcp, cores, 64, true, 1);
            vec![
                cores.to_string(),
                f(baseline / 1e3, 0),
                f(kernel / 1e3, 0),
                f(mtcp / 1e3, 0),
            ]
        })
        .collect();
    print_table(
        "Figure 20: short-connection RPS (x1000) vs vCPUs, 64B messages",
        &[
            "vCPUs",
            "Baseline",
            "NetKernel (kernel NSM)",
            "NetKernel (mTCP NSM)",
        ],
        &rows,
    );
}

/// Table 4: scaling with the number of 2-vCPU NSMs serving one VM.
fn tab04_nsm_scaling(model: &PerfModel) {
    // 8 streams of 8 KB messages spread over `nsms` 2-vCPU NSMs.
    let gbps =
        |dir, nsms| model.bulk_throughput_gbps(StackKind::Kernel, dir, 8192, 8, 2, true, nsms);
    let rows: Vec<Vec<String>> = (1usize..=4)
        .map(|nsms| {
            let send = gbps(TrafficDirection::Send, nsms);
            let recv = gbps(TrafficDirection::Receive, nsms);
            let rps = model.rps(StackKind::Kernel, 2, 64, true, nsms);
            vec![nsms.to_string(), f(send, 1), f(recv, 1), f(rps / 1e3, 1)]
        })
        .collect();
    print_table(
        "Table 4: scaling with the number of 2-vCPU kernel-stack NSMs",
        &["# NSMs", "send Gbps", "recv Gbps", "RPS (x1000)"],
        &rows,
    );
}

/// Figure 21: per-VM bandwidth isolation on a shared 10G NSM.
fn fig21_isolation() {
    // VM1 capped at 1 Gbps (t=0..25s), VM2 at 500 Mbps (t=4.5..21s), VM3
    // uncapped (t=9..30s); the NSM's vNIC is 10 Gbps and VM3 is
    // work-conserving over whatever the caps leave.
    let nsm_capacity = 10.0;
    let mut vm1 = TokenBucket::for_gbps(1.0, 0);
    let mut vm2 = TokenBucket::for_gbps(0.5, 0);
    let mut rows = Vec::new();
    let step_ms = 100u64;
    for t_ms in (0..30_000).step_by(step_ms as usize) {
        let now_ns = t_ms * 1_000_000;
        let t = t_ms as f64 / 1000.0;
        let vm1_active = t < 25.0;
        let vm2_active = (4.5..21.0).contains(&t);
        let vm3_active = t >= 9.0;
        // Demand is unlimited; caps and the NSM capacity shape the outcome.
        let window_bytes = nsm_capacity * 1e9 / 8.0 * (step_ms as f64 / 1000.0);
        let vm1_bytes = if vm1_active {
            vm1.consume_up_to(window_bytes, now_ns)
        } else {
            0.0
        };
        let vm2_bytes = if vm2_active {
            vm2.consume_up_to(window_bytes, now_ns)
        } else {
            0.0
        };
        let to_gbps = |bytes: f64| bytes * 8.0 / (step_ms as f64 / 1000.0) / 1e9;
        let vm1_g = to_gbps(vm1_bytes);
        let vm2_g = to_gbps(vm2_bytes);
        let vm3_g = if vm3_active {
            (nsm_capacity - vm1_g - vm2_g).max(0.0)
        } else {
            0.0
        };
        if t_ms % 2_000 == 0 {
            rows.push(vec![f(t, 1), f(vm1_g, 2), f(vm2_g, 2), f(vm3_g, 2)]);
        }
    }
    print_table(
        "Figure 21: per-VM throughput (Gbps) under CoreEngine token-bucket isolation",
        &[
            "time (s)",
            "VM1 (cap 1G)",
            "VM2 (cap 0.5G)",
            "VM3 (uncapped)",
        ],
        &rows,
    );
}

/// Table 5: response-time distribution at concurrency 1000.
fn tab05_latency(model: &PerfModel) {
    let kernel_rps = model.rps(StackKind::Kernel, 1, 64, true, 1);
    let baseline_rps = model.rps(StackKind::Kernel, 1, 64, false, 1);
    let mtcp_rps = model.rps(StackKind::Mtcp, 1, 64, true, 1);
    let rows = vec![
        vec![
            "Baseline".into(),
            f(model.closed_loop_latency_ms(1000, baseline_rps), 0),
        ],
        vec![
            "NetKernel (kernel NSM)".into(),
            f(model.closed_loop_latency_ms(1000, kernel_rps), 0),
        ],
        vec![
            "NetKernel (mTCP NSM)".into(),
            f(model.closed_loop_latency_ms(1000, mtcp_rps), 0),
        ],
    ];
    print_table(
        "Table 5: mean response time (ms) for 64B messages, concurrency 1000 (Little's law)",
        &["configuration", "mean (ms)"],
        &rows,
    );
}

/// Table 6: CPU overhead at matched bulk throughput.
fn tab06_cpu_overhead_throughput(model: &PerfModel) {
    let rows: Vec<Vec<String>> = [20.0f64, 40.0, 60.0, 80.0, 100.0]
        .iter()
        .map(|&gbps| vec![f(gbps, 0), f(model.cpu_overhead_throughput(8192), 2)])
        .collect();
    print_table(
        "Table 6: normalised CPU usage (NetKernel / Baseline) at matched throughput, 8KB messages",
        &["throughput (Gbps)", "normalised CPU"],
        &rows,
    );
}

/// Table 7: CPU overhead at matched request rate.
fn tab07_cpu_overhead_rps(model: &PerfModel) {
    let rows: Vec<Vec<String>> = [100u32, 200, 300, 400, 500]
        .iter()
        .map(|&krps| vec![format!("{krps}K"), f(model.cpu_overhead_rps(64), 2)])
        .collect();
    print_table(
        "Table 7: normalised CPU usage (NetKernel / Baseline) at matched RPS, 64B messages",
        &["requests/s", "normalised CPU"],
        &rows,
    );
}

/// Control-plane observability: the ramping multi-tenant scenario of the
/// control tests, with the decision log and the per-epoch utilisation time
/// series surfaced in the printed table.
fn ctrl01_control_plane() {
    let report = Scenario::new(rows::control_ramp())
        .run()
        .expect("control scenario runs");
    assert!(report.completed, "control scenario must complete");
    let host = &report.hosts[&HostId(0)];

    let nsm1 = host
        .telemetry
        .nsm_utilisation
        .get(&NsmId(1))
        .cloned()
        .unwrap_or_default();
    let rows: Vec<Vec<String>> = host
        .control
        .iter()
        .map(|e| {
            vec![
                format!("{}", e.at_ns / 1_000_000),
                e.epoch.to_string(),
                format!("{:?}", e.action),
            ]
        })
        .collect();
    print_table(
        "Control plane: decision log of the ramping 3-tenant scenario",
        &["t (ms)", "epoch", "action"],
        &rows,
    );
    println!(
        "epochs sampled {} · NSM1 utilisation mean {:.2} / max {:.2} · actions/epoch mean {:.2}",
        nsm1.len(),
        nsm1.mean(),
        nsm1.max(),
        host.telemetry.actions_per_epoch.mean(),
    );
}

/// Cluster fabric: a drained cross-host migration under byte-verified
/// cross-host traffic, with the event log and digest as the determinism
/// fingerprint.
fn clu01_cluster_migration() {
    let report = Scenario::new(rows::drained_move())
        .run()
        .expect("cluster scenario runs");
    assert!(report.completed, "cluster scenario must complete");

    let rows: Vec<Vec<String>> = report
        .events
        .iter()
        .map(|e| {
            vec![
                format!("{}", e.at_ns / 1_000_000),
                format!("{:?}", e.action),
            ]
        })
        .collect();
    print_table(
        "Cluster: drained cross-host migration event log",
        &["t (ms)", "action"],
        &rows,
    );
    println!(
        "bytes verified {} · steps {} · event-log digest {:#018x}",
        report.bytes_verified, report.steps, report.event_digest
    );
}

/// wm01: drained vs warm migration — how long a long-running tenant keeps
/// the source share pinned. The drained mode waits for the connection's
/// next rotation point; the warm mode transplants the connection and
/// retires the share in the same instant.
fn wm01_warm_vs_drained() {
    use nk_obs::MigrationPhase;
    use nk_types::ClusterAction;

    let cluster = || {
        ClusterConfig::new()
            .with_host(kernel_host(1, &[1]))
            .with_host(kernel_host(2, &[]))
            .with_uplink_latency_us(2)
    };

    // Drained: the tenant rotates its connection every 4 chunks, so the
    // drain waits for the rotation point.
    let drained = Scenario::new(
        ScenarioConfig::new(cluster())
            .with_seed(11)
            .with_tenant(BurstyClient::new(VmId(1), 0).with_total_bytes(96 * 1024))
            .with_migration(2_000_000, VmId(1), HostId(2)),
    )
    .run()
    .expect("drained scenario runs");
    assert!(drained.completed, "drained scenario must complete");
    let at = |events: &[nk_types::ClusterEvent], pick: &dyn Fn(&ClusterAction) -> bool| {
        events
            .iter()
            .find(|e| pick(&e.action))
            .map(|e| e.at_ns)
            .expect("event present")
    };
    let drained_start = at(&drained.events, &|a| {
        matches!(a, ClusterAction::MigrateVm { .. })
    });
    let drained_done = at(&drained.events, &|a| {
        matches!(a, ClusterAction::DrainComplete { .. })
    });
    let drained_wait_ns = drained_done - drained_start;

    // Warm: the same transfer over one long-lived connection (a drained
    // migration would stall until the transfer ends); the share retires in
    // the same instant the handover lands.
    let warm = Scenario::new(
        ScenarioConfig::new(cluster())
            .with_seed(11)
            .with_tenant(
                BurstyClient::new(VmId(1), 0)
                    .with_total_bytes(96 * 1024)
                    .long_lived(),
            )
            .with_warm_migration(2_000_000, VmId(1), HostId(2)),
    )
    .run()
    .expect("warm scenario runs");
    assert!(warm.completed, "warm scenario must complete");
    // The warm side is timed from the flight recorder's phase timeline
    // rather than event-log archaeology: the handover spans the freeze
    // window's opening to the thaw.
    let phase = |p: MigrationPhase| {
        warm.obs
            .phases
            .iter()
            .find(|w| w.vm == Some(VmId(1)) && w.phase == p)
            .copied()
            .expect("warm phase recorded")
    };
    let freeze = phase(MigrationPhase::Freeze);
    let thaw = phase(MigrationPhase::Thaw);
    let warm_wait_ns = thaw.end_ns - freeze.start_ns;
    assert!(
        warm.obs.phases.iter().all(|w| w.ok),
        "every warm phase must succeed: {:?}",
        warm.obs.phases
    );

    print_table(
        "wm01: source-share handover time, drained vs warm migration",
        &["mode", "handover (ms)", "reconnects", "bytes verified"],
        &[
            vec![
                "drained".into(),
                f(drained_wait_ns as f64 / 1e6, 3),
                drained.reconnects.to_string(),
                drained.bytes_verified.to_string(),
            ],
            vec![
                "warm".into(),
                f(warm_wait_ns as f64 / 1e6, 3),
                warm.reconnects.to_string(),
                warm.bytes_verified.to_string(),
            ],
        ],
    );
    println!(
        "warm handover: {} connection(s) transplanted in {} freeze step(s); drained waited {:.3} ms",
        warm.stats.conns_transplanted,
        warm.stats.freeze_steps,
        drained_wait_ns as f64 / 1e6
    );
    println!("recorder timeline of the warm handover:");
    for w in warm.obs.phases.iter().filter(|w| w.vm == Some(VmId(1))) {
        println!(
            "  {:>7?} [{:>9} .. {:>9}]ns width {:>6}ns",
            w.phase,
            w.start_ns,
            w.end_ns,
            w.width_ns()
        );
    }
}

/// ev01: planned host evacuation vs a naive serial drain — virtual time to
/// clear a two-VM host and connections broken while doing it.
///
/// The evacuation arm compiles one plan (both VMs warm, paced waves,
/// shares retired at the tail) and lands in a single control epoch with
/// zero reconnects. The naive arm drains the VMs one at a time — each
/// scripted drained migration waits for its tenant's next connection
/// rotation — so the clear-out takes orders of magnitude longer.
fn ev01_evacuation() {
    use nk_ctrl::PlanEventKind;
    use nk_obs::{EventClass, MigrationPhase, ObsEventKind, ObsFilter};
    use nk_types::ClusterAction;

    // Planned evacuation: both tenants hold long-lived connections (the
    // worst case for draining) and the whole host clears in one plan.
    let evac = Scenario::new(rows::evacuation())
        .run()
        .expect("evacuation scenario runs");
    assert!(evac.completed, "evacuation scenario must complete");
    assert_eq!(evac.stats.evac_commits, 1, "the plan must commit");
    // Timing comes from the flight recorder: the plan events mirrored into
    // the event ring bracket the plan, and the per-step phase windows give
    // the share retirements and the phase breakdown.
    let plan_filter = ObsFilter::new().with_class(EventClass::Plan);
    let plan_at = |pick: &dyn Fn(&PlanEventKind) -> bool| {
        evac.obs
            .events
            .iter()
            .filter(|e| plan_filter.matches(e))
            .find(|e| matches!(&e.kind, ObsEventKind::Plan(k) if pick(k)))
            .map(|e| e.at_ns)
            .expect("plan event recorded")
    };
    let evac_start = plan_at(&|k| matches!(k, PlanEventKind::PlanStarted { .. }));
    let evac_done = plan_at(&|k| matches!(k, PlanEventKind::PlanCommitted { .. }));
    let retired_at = evac
        .obs
        .phases
        .iter()
        .filter(|w| w.phase == MigrationPhase::Retire)
        .map(|w| w.end_ns)
        .max()
        .expect("both shares retire");
    assert_eq!(
        retired_at,
        evac.events
            .iter()
            .filter(|e| matches!(e.action, ClusterAction::ScaleToZero { .. }))
            .map(|e| e.at_ns)
            .max()
            .expect("both shares retire"),
        "recorder and event log must agree on retirement time"
    );
    let evac_wall_ns = evac_done - evac_start;
    let evac_retire_ns = retired_at - evac_start;

    // Naive serial drain: the same host cleared one drained migration at
    // a time; rotating tenants so the drains can actually complete.
    let naive = Scenario::new(
        ScenarioConfig::new(rows::evacuation().cluster)
            .with_seed(11)
            .with_tenant(BurstyClient::new(VmId(1), 0).with_total_bytes(96 * 1024))
            .with_tenant(BurstyClient::new(VmId(2), 0).with_total_bytes(96 * 1024))
            .with_migration(2_000_000, VmId(1), HostId(2))
            .with_migration(6_000_000, VmId(2), HostId(3)),
    )
    .run()
    .expect("naive drain scenario runs");
    assert!(naive.completed, "naive drain scenario must complete");
    let naive_done = naive
        .events
        .iter()
        .filter(|e| matches!(e.action, ClusterAction::DrainComplete { .. }))
        .map(|e| e.at_ns)
        .max()
        .expect("both drains complete");
    let naive_wall_ns = naive_done - 2_000_000;

    print_table(
        "ev01: clearing a two-VM host, planned evacuation vs serial drain",
        &["mode", "virtual time (ms)", "reconnects", "bytes verified"],
        &[
            vec![
                "evacuation".into(),
                f(evac_wall_ns as f64 / 1e6, 3),
                evac.reconnects.to_string(),
                evac.bytes_verified.to_string(),
            ],
            vec![
                "serial drain".into(),
                f(naive_wall_ns as f64 / 1e6, 3),
                naive.reconnects.to_string(),
                naive.bytes_verified.to_string(),
            ],
        ],
    );
    println!(
        "evacuation: {} warm move(s), {} connection(s) transplanted, both shares retired {:.3} ms after plan start",
        evac.stats.warm_migrations,
        evac.stats.conns_transplanted,
        evac_retire_ns as f64 / 1e6
    );
    // Recorder phase breakdown: total virtual time per phase, one window
    // per plan step. A VM's freeze window spans its wave's shared
    // wire-draining pause; every other step is a coordinator action of
    // zero virtual width.
    println!("recorder phase totals:");
    for p in [
        MigrationPhase::Freeze,
        MigrationPhase::Export,
        MigrationPhase::Reroute,
        MigrationPhase::Install,
        MigrationPhase::Thaw,
        MigrationPhase::Retire,
    ] {
        let windows: Vec<_> = evac.obs.phases.iter().filter(|w| w.phase == p).collect();
        if windows.is_empty() {
            continue;
        }
        let total: u64 = windows.iter().map(|w| w.width_ns()).sum();
        println!(
            "  {:>7?}: {} window(s), {:.3} ms total",
            p,
            windows.len(),
            total as f64 / 1e6
        );
    }
}
