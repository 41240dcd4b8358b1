//! Formatting helpers and machine-readable results for experiment output.
//!
//! Every experiment prints a small table in the same layout the paper uses,
//! so `EXPERIMENTS.md` can be checked against the output directly. On top of
//! the human tables, experiments push their headline numbers (Gbps, RPS,
//! latency statistics) into a [`BenchResults`] collector which a run writes
//! whole to `BENCH_results.json`, the artefact CI archives. Every number is
//! deterministic — computed by the `PerfModel` or counted in virtual time —
//! and every record says so (`"kind": "modeled"`); measured, wall-clock
//! numbers live in `examples/nkbench` and `BENCHMARK.json` only.

use serde::Serialize;

/// Print a table with a title, a header row and data rows, with columns
/// aligned on width.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
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
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// One named number of one experiment (e.g. `send_gbps_8k` in `Gbps`).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Metric {
    /// Machine-friendly metric name.
    pub label: String,
    /// Unit the value is expressed in (`Gbps`, `rps`, `ms`, `us`, …).
    pub unit: String,
    /// The value.
    pub value: f64,
}

/// The provenance of every record: the only value the schema can hold, so
/// a measured row cannot be written into the file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Modeled;

impl Serialize for Modeled {
    fn to_value(&self) -> serde::Value {
        "modeled".to_value()
    }
}

/// The machine-readable record of one experiment.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ExperimentResult {
    /// Experiment name as used on the CLI (`fig13`, `tab05`, …).
    pub name: String,
    /// Always `"modeled"`.
    pub kind: Modeled,
    /// Headline metrics.
    pub metrics: Vec<Metric>,
}

impl ExperimentResult {
    /// Append one metric (builder style, chainable).
    pub fn metric(&mut self, label: &str, unit: &str, value: f64) -> &mut Self {
        self.metrics.push(Metric {
            label: label.to_string(),
            unit: unit.to_string(),
            value,
        });
        self
    }
}

/// Collector for a whole experiments run, serialized to
/// `BENCH_results.json`.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct BenchResults {
    /// One entry per experiment that ran, in execution order.
    pub experiments: Vec<ExperimentResult>,
}

impl BenchResults {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open (append) the record of one experiment.
    pub fn experiment(&mut self, name: &str) -> &mut ExperimentResult {
        self.experiments.push(ExperimentResult {
            name: name.to_string(),
            kind: Modeled,
            metrics: Vec::new(),
        });
        self.experiments.last_mut().expect("just pushed")
    }

    /// Pretty JSON rendering of the collected results.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("results serialize")
    }

    /// Write the results to `path`, replacing whatever is there.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(100.0, 1), "100.0");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["30".into(), "4".into()]],
        );
    }

    #[test]
    fn results_collect_and_serialize() {
        let mut results = BenchResults::new();
        results
            .experiment("fig13")
            .metric("send_gbps_8k", "Gbps", 31.5)
            .metric("send_gbps_64", "Gbps", 2.1);
        results.experiment("tab05").metric("mean_ms", "ms", 14.0);
        assert_eq!(results.experiments.len(), 2);
        assert_eq!(results.experiments[0].metrics.len(), 2);

        let json = results.to_json();
        assert!(json.contains("\"fig13\""));
        assert!(json.contains("\"send_gbps_8k\""));
        assert!(json.contains("\"Gbps\""));
        assert!(json.contains("\"tab05\""));
    }

    #[test]
    fn a_run_writes_the_whole_file_and_every_record_is_modeled() {
        let path = std::env::temp_dir().join("nk_bench_results_test.json");
        let path = path.to_str().unwrap();
        std::fs::write(path, "left over from an earlier run").unwrap();
        let mut results = BenchResults::new();
        results
            .experiment("fig11")
            .metric("mnqes_b256", "M/s", 198.0);
        results.experiment("par01").metric("speedup", "x", 2.5);
        results.write(path).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text, results.to_json() + "\n");
        assert_eq!(text.matches("\"kind\": \"modeled\"").count(), 2, "{text}");
        let _ = std::fs::remove_file(path);
    }
}
