//! `nkbench`: the repository's one benchmark.
//!
//! ```text
//! nkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one JSON line
//! nkbench run   [--seed n] [--seconds s] [--out file] [--smoke]      every workload, untraced
//! nkbench trace [--seed n] [--seconds s] [--out file] [--trace-out dir] [--smoke]
//! nkbench compare <a.json> <b.json>
//! ```
//!
//! See `README.md` next to this package for every workload and metric.

mod alloc;
mod apps;
mod clock;
mod layers;
mod metrics;
mod probe;
mod report;
mod stats;
mod trace;
mod workloads;
mod world;

use layers::LayerMetric;
use metrics::{EndToEnd, TraceInputs, Value as Metric};
use std::process::{Command, ExitCode};
use trace::Tracer;
use workloads::{run_window, Shape, Spec, Substrate, Window, WINDOWS, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Default `--seconds`: what `BENCHMARK.json` fixes as `run_seconds`.
const DEFAULT_SECONDS: f64 = 12.0;
/// Timed steps per window under `--smoke`.
const SMOKE_STEPS: u64 = 50;

/// Options shared by every mode.
struct Opts {
    /// `--workload`, for the single-workload modes.
    workload: Option<String>,
    /// `--trace 1`.
    traced: bool,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

impl Opts {
    fn window_steps(&self, spec: &Spec) -> u64 {
        if self.smoke {
            SMOKE_STEPS
        } else {
            spec.window_steps(self.seconds)
        }
    }

    fn windows(&self) -> u64 {
        if self.smoke {
            2
        } else {
            WINDOWS
        }
    }
}

/// Run the untraced windows of one workload and fold them.
fn run_workload(spec: &Spec, opts: &Opts) -> (EndToEnd, Vec<Window>) {
    let steps = opts.window_steps(spec);
    let mut windows = Vec::new();
    for i in 0..opts.windows() {
        // The first window's set-up is counted from process start.
        let from = if i == 0 { 0 } else { clock::now_ns() };
        windows.push(run_window(
            spec,
            opts.seed,
            steps,
            Substrate::Real,
            &mut Tracer::disabled(),
            from,
        ));
    }
    let rss = metrics::peak_rss_mb();
    let mut e2e = metrics::end_to_end(&windows, rss);
    // A sharded cluster must reproduce the serial one exactly: same inputs,
    // one reference window on the serial executor, compared by digest.
    if let Shape::Xhost { threads, .. } = spec.shape {
        if threads > 1 {
            let serial = workloads::spec("xhost_t1").expect("xhost_t1 is a workload");
            let reference = run_window(
                serial,
                opts.seed,
                steps,
                Substrate::Real,
                &mut Tracer::disabled(),
                clock::now_ns(),
            );
            if reference.sim_digest != e2e.sim_digest {
                e2e.violations.push(format!(
                    "{} digest {:016x} differs from the serial reference {:016x}",
                    spec.name, e2e.sim_digest, reference.sim_digest
                ));
            }
        }
    }
    (e2e, windows)
}

/// Deterministic counts of a window, flattened for the report.
fn counts_of(w: &Window) -> Vec<(&'static str, u64)> {
    let mut out = vec![("timed_ops", w.timed.ops), ("timed_bytes", w.timed.bytes)];
    out.extend(w.settled.fields());
    out
}

/// The traced run of one workload: one untraced window, one traced window,
/// and the per-layer metrics they give together with the layer drives.
fn trace_workload(
    spec: &Spec,
    opts: &Opts,
    layers: &[LayerMetric],
) -> (Vec<Metric>, Window, Window) {
    let steps = opts.window_steps(spec);
    let untraced = run_window(
        spec,
        opts.seed,
        steps,
        Substrate::Real,
        &mut Tracer::disabled(),
        clock::now_ns(),
    );
    let mut tracer = Tracer::enabled();
    let before = alloc::snapshot();
    alloc::set_counting(true);
    let traced = run_window(
        spec,
        opts.seed,
        steps,
        Substrate::Wired,
        &mut tracer,
        clock::now_ns(),
    );
    alloc::set_counting(false);
    let after = alloc::snapshot();
    let per_layer = metrics::per_layer(&TraceInputs {
        spec,
        untraced: &untraced,
        traced: &traced,
        spans: tracer.spans(),
        allocs: (after.0 - before.0, after.1 - before.1),
        layers,
    });
    if let Some(dir) = &opts.trace_out {
        let path = format!("{dir}/{}.trace.json", spec.name);
        let json = trace::chrome_trace(spec.name, tracer.spans());
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            eprintln!("nkbench: cannot write {path}: {e}");
        } else {
            eprintln!("nkbench: wrote {path} ({} spans)", tracer.spans().len());
        }
    }
    (per_layer, untraced, traced)
}

fn parse_opts(args: &[String]) -> Result<(Opts, Vec<String>), String> {
    let mut opts = Opts {
        workload: None,
        traced: false,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 600.0)
                    .ok_or_else(|| "--seconds takes a number from 1 to 600".to_string())?;
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = Some(value("--out")?),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--workload" => opts.workload = Some(value("--workload")?),
            "--trace" => {
                opts.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => rest.push(other.to_string()),
        }
    }
    Ok((opts, rest))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn env_of(opts: &Opts) -> report::Env {
    report::Env {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        rustc: command_line("rustc", &["--version"]),
        git_commit: command_line("git", &["rev-parse", "HEAD"]),
        seed: opts.seed,
        seconds: opts.seconds,
    }
}

/// The driver's entry: one workload, one JSON line on stdout.
fn driver(spec: &Spec, opts: &Opts) -> ExitCode {
    let (correct, attempted, failed, values) = if opts.traced {
        let (per_layer, untraced, traced) = trace_workload(spec, opts, &layers::run_all());
        let failed = untraced.failed_ops + traced.failed_ops;
        for v in untraced.violations.iter().chain(&traced.violations) {
            eprintln!("nkbench: {}: {v}", spec.name);
        }
        (
            untraced.violations.is_empty() && traced.violations.is_empty(),
            untraced.timed.ops + failed,
            failed,
            per_layer,
        )
    } else {
        let (e2e, _) = run_workload(spec, opts);
        for v in &e2e.violations {
            eprintln!("nkbench: {}: {v}", spec.name);
        }
        let in_contract: Vec<Metric> = e2e
            .values
            .iter()
            .zip(&metrics::END_TO_END)
            .filter(|(_, def)| def.in_contract)
            .map(|(v, _)| v.clone())
            .collect();
        (
            e2e.violations.is_empty(),
            e2e.attempted,
            e2e.failed,
            in_contract,
        )
    };
    println!(
        "{}",
        report::driver_line(correct, attempted, failed, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload's report section from its untraced windows.
fn run_section(spec: &Spec, opts: &Opts) -> serde::Value {
    let (e2e, windows) = run_workload(spec, opts);
    report::workload_value(
        spec,
        opts.window_steps(spec),
        opts.windows(),
        &e2e,
        &counts_of(&windows[0]),
        None,
    )
}

/// One workload's report section from its traced run. The layer drives are
/// workload-independent and reported once, so they are left out here.
fn trace_section(spec: &Spec, opts: &Opts, layers: &[LayerMetric]) -> serde::Value {
    let (mut per_layer, untraced, traced) = trace_workload(spec, opts, layers);
    per_layer.retain(|m| layers.iter().all(|l| l.name != m.name));
    let mut e2e = metrics::end_to_end(std::slice::from_ref(&untraced), metrics::peak_rss_mb());
    e2e.violations
        .extend(traced.violations.iter().map(|v| format!("traced: {v}")));
    e2e.failed += traced.failed_ops;
    report::workload_value(
        spec,
        opts.window_steps(spec),
        1,
        &e2e,
        &counts_of(&untraced),
        Some(&per_layer),
    )
}

/// Run one workload's untraced windows in a fresh process of this same
/// executable, so no workload inherits another's heap, caches or RSS; the
/// child prints its report section as its last stdout line.
fn run_section_in_child(spec: &Spec, opts: &Opts) -> Result<serde::Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("worker")
        .args(["--workload", spec.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child and reaps it.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {} worker: {e}", spec.name))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok())
        .filter(|_| output.status.success())
        .ok_or_else(|| format!("the {} worker failed ({})", spec.name, output.status))
}

/// `run` / `trace`: every workload, every metric by name, output checks.
fn all_workloads(opts: &Opts, traced: bool) -> ExitCode {
    let env = env_of(opts);
    println!(
        "nkbench {}: seed {} seconds {} nproc {} profile {} ({})",
        if traced { "trace" } else { "run" },
        env.seed,
        env.seconds,
        env.nproc,
        env.profile,
        env.rustc
    );
    let layers = if traced {
        layers::run_all()
    } else {
        Vec::new()
    };
    let layer_values = metrics::layer_values(&layers);
    if traced {
        print_section_metrics("layer drives", &report::metrics_object(&layer_values));
    }
    let mut sections = Vec::new();
    let mut all_correct = true;
    for spec in &WORKLOADS {
        let section = if traced {
            trace_section(spec, opts, &layers)
        } else {
            match run_section_in_child(spec, opts) {
                Ok(section) => section,
                Err(e) => {
                    eprintln!("nkbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        let correct = section.get("correct") == &serde::Value::Bool(true);
        all_correct &= correct;
        println!(
            "{} — {} step(s) x {} window(s), digest {}, attempted {}, failed {}, checks {}",
            spec.name,
            string_of(section.get("window_steps")),
            string_of(section.get("windows")),
            string_of(section.get("sim_digest")),
            string_of(section.get("attempted")),
            string_of(section.get("failed")),
            if correct { "pass" } else { "FAIL" }
        );
        if let serde::Value::Array(violations) = section.get("violations") {
            for v in violations {
                println!("    violation: {}", string_of(v));
            }
        }
        print_section_metrics("end to end", section.get("metrics"));
        print_section_metrics("per layer", section.get("per_layer"));
        sections.push(section);
    }
    if let Some(path) = &opts.out {
        let report = report::report_value(&env, &layer_values, sections);
        let text = serde_json::to_string_pretty(&report).expect("a Value always serializes");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("nkbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("nkbench: at least one output check failed");
        ExitCode::FAILURE
    }
}

fn string_of(v: &serde::Value) -> String {
    match v {
        serde::Value::String(s) => s.clone(),
        serde::Value::Uint(n) => n.to_string(),
        serde::Value::Int(n) => n.to_string(),
        serde::Value::Float(f) => f.to_string(),
        serde::Value::Bool(b) => b.to_string(),
        _ => String::new(),
    }
}

fn print_section_metrics(title: &str, metrics: &serde::Value) {
    let serde::Value::Object(fields) = metrics else {
        return;
    };
    println!("  {title}");
    for (name, m) in fields {
        let num = |k: &str| string_of(m.get(k)).parse::<f64>().unwrap_or(0.0);
        println!(
            "    {:<34} {:>16.4} {:<6} {:<9} spread {:>5.1}%  n={}",
            name,
            num("value"),
            string_of(m.get("unit")),
            string_of(m.get("kind")),
            100.0 * num("spread"),
            string_of(m.get("samples"))
        );
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| -> Result<serde::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))
    };
    match load(a).and_then(|va| load(b).and_then(|vb| report::compare(&va, &vb))) {
        Ok((table, regressed)) => {
            print!("{table}");
            if regressed {
                println!("verdict: REGRESSED");
                ExitCode::FAILURE
            } else {
                println!("verdict: no regression");
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("nkbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  nkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  nkbench run   [--seed n] [--seconds s] [--out file] [--smoke]
  nkbench trace [--seed n] [--seconds s] [--out file] [--trace-out dir] [--smoke]
  nkbench compare <a.json> <b.json>
workloads: bulk rpc churn xhost_t1 xhost_t2";

fn main() -> ExitCode {
    // An exported override would silently turn `xhost_t1` into `xhost_t2`
    // (or worse); the workloads own these settings. Done before any thread
    // exists.
    std::env::remove_var("NK_CLUSTER_THREADS");
    std::env::remove_var("NK_CLUSTER_SHARD_WITHIN_HOSTS");
    clock::now_ns(); // anchor the clock at process start

    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, rest) = match parse_opts(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("nkbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = metrics::check_registry(WORKLOADS.len()) {
        eprintln!("nkbench: {e}");
        return ExitCode::FAILURE;
    }
    let mode = rest.first().map(String::as_str).unwrap_or("");
    if mode == "compare" {
        return match (rest.get(1), rest.get(2)) {
            (Some(a), Some(b)) => compare_files(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    if cfg!(debug_assertions) && !opts.smoke {
        eprintln!("nkbench: refusing to measure a debug build (use --release, or --smoke)");
        return ExitCode::from(2);
    }
    match mode {
        "run" => return all_workloads(&opts, false),
        "trace" => return all_workloads(&opts, true),
        _ => {}
    }
    let Some(spec) = opts.workload.as_deref().and_then(workloads::spec) else {
        eprintln!("nkbench: name one of the workloads with --workload\n{USAGE}");
        return ExitCode::from(2);
    };
    if mode == "worker" {
        let section = run_section(spec, &opts);
        println!(
            "{}",
            serde_json::to_string(&section).expect("a Value always serializes")
        );
        ExitCode::SUCCESS
    } else {
        driver(spec, &opts)
    }
}
