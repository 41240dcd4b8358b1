//! Tier-1 smoke test of `nkbench` (the benchmark package under
//! `examples/nkbench/`, which is not a workspace member and so is not
//! built by `cargo test` on its own).
//!
//! The benchmark's library modules are compiled in by path, so their unit
//! tests (stats helpers, span self-time, registry limits) run here too,
//! and every workload is driven end to end at ~50 steps in the test
//! profile: twice for determinism, once more on the traced `WiredHost`.

// The shared modules carry items only the benchmark binary calls.
#![allow(dead_code)]

#[path = "../../examples/nkbench/src/apps.rs"]
mod apps;
#[path = "../../examples/nkbench/src/clock.rs"]
mod clock;
#[path = "../../examples/nkbench/src/layers.rs"]
mod layers;
#[path = "../../examples/nkbench/src/metrics.rs"]
mod metrics;
#[path = "../../examples/nkbench/src/probe.rs"]
mod probe;
#[path = "../../examples/nkbench/src/stats.rs"]
mod stats;
#[path = "../../examples/nkbench/src/trace.rs"]
mod trace;
#[path = "../../examples/nkbench/src/workloads.rs"]
mod workloads;
#[path = "../../examples/nkbench/src/world.rs"]
mod world;

use trace::{layer_totals, Layer, Tracer};
use workloads::{run_window, Shape, Substrate, Window, WORKLOADS};

const STEPS: u64 = 50;

fn window(name: &str, substrate: Substrate, tracer: &mut Tracer) -> Window {
    let spec = workloads::spec(name).expect("a known workload");
    run_window(spec, 7, STEPS, substrate, tracer, clock::now_ns())
}

#[test]
fn every_workload_runs_twice_to_the_same_digest_with_all_checks_passing() {
    for spec in &WORKLOADS {
        let a = window(spec.name, Substrate::Real, &mut Tracer::disabled());
        let b = window(spec.name, Substrate::Real, &mut Tracer::disabled());
        assert_eq!(a.violations, Vec::<String>::new(), "{}", spec.name);
        assert_eq!(a.failed_ops, 0, "{}", spec.name);
        assert!(a.timed.ops > 0 && a.timed.bytes > 0, "{}", spec.name);
        assert_eq!(a.sim_digest, b.sim_digest, "{}: digest", spec.name);
        assert_eq!(a.settled, b.settled, "{}: counts", spec.name);
        assert_eq!(a.timed, b.timed, "{}: app counters", spec.name);
    }
}

#[test]
fn sharded_cluster_reproduces_the_serial_one() {
    let t1 = window("xhost_t1", Substrate::Real, &mut Tracer::disabled());
    let t2 = window("xhost_t2", Substrate::Real, &mut Tracer::disabled());
    assert_eq!(t2.sim_digest, t1.sim_digest);
    assert_eq!(t2.settled, t1.settled);
    assert_eq!(t2.timed.bytes, t1.timed.bytes);
    assert_eq!(t1.exec.expect("cluster window").threads, 1);
    assert_eq!(t2.exec.expect("cluster window").threads, 2);
}

#[test]
fn wired_host_matches_the_real_host_and_accounts_for_all_time() {
    for spec in WORKLOADS
        .iter()
        .filter(|s| !matches!(s.shape, Shape::Xhost { .. }))
    {
        let real = window(spec.name, Substrate::Real, &mut Tracer::disabled());
        let mut tracer = Tracer::enabled();
        let wired = window(spec.name, Substrate::Wired, &mut tracer);
        assert_eq!(wired.violations, Vec::<String>::new(), "{}", spec.name);
        assert_eq!(wired.sim_digest, real.sim_digest, "{}", spec.name);

        // Every nanosecond of the window belongs to exactly one layer.
        let spans = tracer.spans();
        let root = spans[0].end_ns - spans[0].start_ns;
        let totals = layer_totals(spans);
        let attributed: u64 = totals.iter().map(|t| t.self_ns).sum();
        assert_eq!(attributed, root, "{}", spec.name);
        assert_eq!(totals[Layer::Step as usize].spans, STEPS, "{}", spec.name);
        assert!(totals[Layer::Guest as usize].calls > 0, "{}", spec.name);
        assert!(totals[Layer::Engine as usize].self_ns > 0, "{}", spec.name);
    }
}
