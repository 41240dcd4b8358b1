//! Integration tests over the fixture workspaces: every rule fires at the
//! expected file:line in the violating tree, the clean tree demonstrates
//! every suppression mechanism, and the baseline round-trips.

use nk_lint::{run_check, write_baseline, Options};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check(name: &str) -> nk_lint::Report {
    run_check(&Options {
        root: fixture(name),
        baseline: None,
    })
    .unwrap()
}

#[test]
fn violating_fixture_fires_every_rule_at_exact_lines() {
    let report = check("violating_ws");
    let got: Vec<(&str, &str, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    let expected: Vec<(&str, &str, u32)> = vec![
        // A crate named `nk-bench` gets no exemption from the wall-clock ban.
        ("wall-clock", "crates/nk-bench/src/lib.rs", 4),
        ("layering", "crates/nk-engine/Cargo.toml", 5),
        ("layering", "crates/nk-engine/Cargo.toml", 6),
        ("hash-order", "crates/nk-engine/src/lib.rs", 3),
        ("hash-order", "crates/nk-engine/src/lib.rs", 6),
        ("hash-order", "crates/nk-engine/src/lib.rs", 6),
        ("wall-clock", "crates/nk-engine/src/lib.rs", 11),
        ("thread-identity", "crates/nk-engine/src/lib.rs", 14),
        ("thread-identity", "crates/nk-engine/src/lib.rs", 15),
        ("cross-shard-locks", "crates/nk-engine/src/lib.rs", 18),
        ("cross-shard-locks", "crates/nk-engine/src/lib.rs", 18),
        ("unsafe-audit", "crates/nk-engine/src/lib.rs", 21),
        ("layering", "crates/nk-mystery/Cargo.toml", 5),
    ];
    assert_eq!(got, expected);

    // All six rule ids are represented.
    let mut rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    rules.sort();
    rules.dedup();
    assert_eq!(
        rules,
        vec![
            "cross-shard-locks",
            "hash-order",
            "layering",
            "thread-identity",
            "unsafe-audit",
            "wall-clock",
        ]
    );

    // The unaudited unsafe block shows up in the inventory, unaudited.
    assert_eq!(report.unsafe_inventory.len(), 1);
    let site = &report.unsafe_inventory[0];
    assert_eq!(
        (site.line, site.kind.as_str(), site.has_safety),
        (21, "block", false)
    );
}

#[test]
fn violating_layering_findings_name_the_edge() {
    let report = check("violating_ws");
    let layering: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "layering")
        .map(|f| f.key.as_str())
        .collect();
    assert_eq!(
        layering,
        vec![
            "upward:nk-host",
            "undeclared:nk-widgets",
            "unregistered:nk-mystery"
        ]
    );
}

#[test]
fn clean_fixture_reports_nothing_and_audits_all_unsafe() {
    let report = check("clean_ws");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.baselined.is_empty());
    // fn, block, impl Send, impl Sync — all justified.
    assert_eq!(report.unsafe_inventory.len(), 4);
    assert!(report.unsafe_inventory.iter().all(|s| s.has_safety));
    let kinds: Vec<&str> = report
        .unsafe_inventory
        .iter()
        .map(|s| s.kind.as_str())
        .collect();
    assert_eq!(kinds, vec!["fn", "block", "impl", "impl"]);
}

#[test]
fn baseline_round_trip_suppresses_known_findings() {
    let first = check("violating_ws");
    assert_eq!(first.findings.len(), 13);

    let dir = std::env::temp_dir().join(format!("nk-lint-baseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("baseline.json");
    write_baseline(&path, &first.findings).unwrap();

    let second = run_check(&Options {
        root: fixture("violating_ws"),
        baseline: Some(path.clone()),
    })
    .unwrap();
    assert!(second.findings.is_empty(), "{:?}", second.findings);
    assert_eq!(second.baselined.len(), 13);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explicit_missing_baseline_is_an_error() {
    let err = run_check(&Options {
        root: fixture("violating_ws"),
        baseline: Some(fixture("violating_ws").join("no-such-baseline.json")),
    })
    .unwrap_err();
    assert!(err.to_string().contains("does not exist"), "{err}");
}

#[test]
fn non_workspace_root_is_an_error() {
    let err = run_check(&Options {
        root: fixture("violating_ws").join("crates/nk-engine"),
        baseline: None,
    })
    .unwrap_err();
    assert!(err.to_string().contains("not a workspace root"), "{err}");
}
