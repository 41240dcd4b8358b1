//! The JSON report `nkbench run` / `nkbench trace` write, and
//! `nkbench compare`, which reads two of them.

use crate::metrics::{EndToEnd, Kind, Value as Metric, END_TO_END};
use crate::workloads::Spec;
use serde::Value;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::String(text.to_string())
}

/// The run's environment, recorded in every report.
pub struct Env {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
}

impl Env {
    fn to_value(&self) -> Value {
        obj(vec![
            ("nproc", Value::Uint(self.nproc as u64)),
            ("profile", s(self.profile)),
            ("rustc", s(&self.rustc)),
            ("git_commit", s(&self.git_commit)),
            ("seed", Value::Uint(self.seed)),
            ("seconds", Value::Float(self.seconds)),
        ])
    }
}

fn metric_value(m: &Metric) -> Value {
    let mut fields = vec![
        ("value", Value::Float(m.value)),
        ("unit", s(m.unit)),
        ("kind", s(m.kind.as_str())),
        ("spread", Value::Float(m.spread)),
        ("samples", Value::Uint(m.samples)),
    ];
    if let Some(def) = END_TO_END.iter().find(|d| d.name == m.name) {
        fields.push((
            "better",
            s(if def.higher_is_better {
                "higher"
            } else {
                "lower"
            }),
        ));
        fields.push(("bound", Value::Float(def.bound)));
    }
    obj(fields)
}

/// Metrics as a JSON object keyed by name.
pub fn metrics_object(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| (m.name.to_string(), metric_value(m)))
            .collect(),
    )
}

/// One workload's section of the report.
pub fn workload_value(
    spec: &Spec,
    window_steps: u64,
    windows: u64,
    e2e: &EndToEnd,
    counts: &[(&'static str, u64)],
    per_layer: Option<&[Metric]>,
) -> Value {
    let mut fields = vec![
        ("name", s(spec.name)),
        ("why", s(spec.why)),
        ("correct", Value::Bool(e2e.violations.is_empty())),
        ("attempted", Value::Uint(e2e.attempted)),
        ("failed", Value::Uint(e2e.failed)),
        ("sim_digest", s(&format!("{:016x}", e2e.sim_digest))),
        ("window_steps", Value::Uint(window_steps)),
        ("windows", Value::Uint(windows)),
        (
            "virt_op_top_percentile",
            e2e.top_percentile.map_or(Value::Null, Value::Float),
        ),
        (
            "violations",
            Value::Array(e2e.violations.iter().map(|v| s(v)).collect()),
        ),
        (
            "counts",
            Value::Object(
                counts
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Uint(*v)))
                    .collect(),
            ),
        ),
        ("metrics", metrics_object(&e2e.values)),
    ];
    if let Some(layers) = per_layer {
        fields.push(("per_layer", metrics_object(layers)));
    }
    obj(fields)
}

/// The whole report; `layers` (the workload-independent layer drives) is
/// empty for an untraced run.
pub fn report_value(env: &Env, layers: &[Metric], workloads: Vec<Value>) -> Value {
    obj(vec![
        ("schema", s("nkbench/1")),
        ("env", env.to_value()),
        ("layers", metrics_object(layers)),
        ("workloads", Value::Array(workloads)),
    ])
}

/// The driver's one-line result: `correct`, `attempted`, `failed` and the
/// metrics as `{name: {value, unit}}`.
pub fn driver_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj(vec![("value", Value::Float(m.value)), ("unit", s(m.unit))]),
                )
            })
            .collect(),
    );
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Uint(attempted.max(1))),
        ("failed", Value::Uint(failed)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&line).expect("a Value always serializes")
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Uint(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Verdict of one workload × metric comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or identical, for an exact metric).
    Ok,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// A run-to-run spread wider than the bound: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare one metric: `worse` is the signed share by which `b` is worse
/// than `a`. A measured metric whose spread (on either side) exceeds its
/// bound is unresolved; simulated metrics are exact, so any difference
/// counts.
pub fn verdict(kind: Kind, bound: f64, worse: f64, spread_a: f64, spread_b: f64) -> Verdict {
    if kind == Kind::Measured && spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Compare report `b` against baseline `a`. Returns the printable table
/// and whether anything regressed (a `regressed` verdict, a higher
/// `failed_ops_ratio`, an incorrect run, or a workload missing from `b`).
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let workloads = |v: &Value| -> Result<Vec<Value>, String> {
        match v.get("workloads") {
            Value::Array(items) => Ok(items.clone()),
            _ => Err("not an nkbench report: no `workloads` array".to_string()),
        }
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let name_of = |w: &Value| match w.get("name") {
        Value::String(n) => n.clone(),
        _ => String::new(),
    };
    let mut out = String::new();
    let mut bad = false;
    out.push_str(&format!(
        "{:<10} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "worse", "bound"
    ));
    for base in &wa {
        let name = name_of(base);
        let Some(new) = wb.iter().find(|w| name_of(w) == name) else {
            out.push_str(&format!("{name:<10} missing from the second report\n"));
            bad = true;
            continue;
        };
        for def in &END_TO_END {
            let (ma, mb) = (
                base.get("metrics").get(def.name),
                new.get("metrics").get(def.name),
            );
            let (Some(va), Some(vb)) = (number(ma.get("value")), number(mb.get("value"))) else {
                return Err(format!("{name}: metric {} is missing a value", def.name));
            };
            let toward_worse = if def.higher_is_better {
                va - vb
            } else {
                vb - va
            };
            // A zero baseline (failed_ops_ratio) compares absolutely.
            let worse = if va != 0.0 {
                toward_worse / va.abs()
            } else {
                toward_worse
            };
            let spread = |m: &Value| number(m.get("spread")).unwrap_or(0.0);
            let v = verdict(def.kind, def.bound, worse, spread(ma), spread(mb));
            bad |= v == Verdict::Regressed;
            out.push_str(&format!(
                "{:<10} {:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {}\n",
                name,
                def.name,
                va,
                vb,
                100.0 * worse,
                100.0 * def.bound,
                v.as_str()
            ));
        }
        let same_counts = base.get("counts") == new.get("counts")
            && base.get("sim_digest") == new.get("sim_digest");
        out.push_str(&format!(
            "{:<10} {:<20} {}\n",
            name,
            "counts+sim_digest",
            if same_counts { "identical" } else { "differ" }
        ));
        if new.get("correct") != &Value::Bool(true) {
            out.push_str(&format!(
                "{name:<10} output checks failed in the second report\n"
            ));
            bad = true;
        }
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        use Kind::{Measured, Simulated};
        assert_eq!(verdict(Measured, 0.1, 0.05, 0.02, 0.03), Verdict::Ok);
        assert_eq!(verdict(Measured, 0.1, 0.15, 0.02, 0.03), Verdict::Regressed);
        assert_eq!(verdict(Measured, 0.1, -0.15, 0.02, 0.03), Verdict::Improved);
        assert_eq!(verdict(Measured, 0.1, 0.15, 0.02, 0.2), Verdict::Unresolved);
        assert_eq!(verdict(Simulated, 0.0, 0.0, 0.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(Simulated, 0.0, 1e-9, 0.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(Simulated, 0.0, -1e-9, 0.0, 0.0), Verdict::Improved);
    }

    fn report(ops: f64, failed_ratio: f64) -> Value {
        let metric = |v: f64| {
            obj(vec![
                ("value", Value::Float(v)),
                ("spread", Value::Float(0.01)),
            ])
        };
        let metrics = Value::Object(
            END_TO_END
                .iter()
                .map(|d| {
                    let v = match d.name {
                        "ops_per_s" => ops,
                        "failed_ops_ratio" => failed_ratio,
                        _ => 1.0,
                    };
                    (d.name.to_string(), metric(v))
                })
                .collect(),
        );
        obj(vec![(
            "workloads",
            Value::Array(vec![obj(vec![
                ("name", s("rpc")),
                ("correct", Value::Bool(true)),
                ("metrics", metrics),
            ])]),
        )])
    }

    #[test]
    fn compare_flags_regressions_and_failed_ops() {
        let base = report(100.0, 0.0);
        let (table, bad) = compare(&base, &report(95.0, 0.0)).unwrap();
        assert!(!bad, "{table}");
        let (table, bad) = compare(&base, &report(80.0, 0.0)).unwrap();
        assert!(bad && table.contains("regressed"), "{table}");
        let (_, bad) = compare(&base, &report(100.0, 0.001)).unwrap();
        assert!(bad, "a higher failed_ops_ratio must fail the comparison");
        assert!(compare(&Value::Null, &base).is_err());
    }
}
