//! CLI exit-code contract: 0 clean, 1 violations, 2 internal error — plus
//! the machine-readable report shape.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn nk_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nk-lint"))
        .args(args)
        .output()
        .expect("spawn nk-lint")
}

#[test]
fn exit_0_on_a_clean_tree() {
    let out = nk_lint(&["check", "--root", fixture("clean_ws").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("0 finding(s)"), "{text}");
}

#[test]
fn exit_1_when_violations_are_found() {
    let out = nk_lint(&["check", "--root", fixture("violating_ws").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("[hash-order]"), "{text}");
    assert!(text.contains("crates/nk-engine/src/lib.rs:3:"), "{text}");
    assert!(text.contains("fix: "), "{text}");
}

#[test]
fn exit_2_on_internal_errors() {
    // Unreadable root.
    let out = nk_lint(&["check", "--root", "/no/such/workspace"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(!out.stderr.is_empty());

    // Explicit baseline that does not exist.
    let out = nk_lint(&[
        "check",
        "--root",
        fixture("clean_ws").to_str().unwrap(),
        "--baseline",
        "/no/such/baseline.json",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // Unknown flag.
    let out = nk_lint(&["check", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // Unknown command.
    let out = nk_lint(&["lint-harder"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn json_report_carries_findings_and_unsafe_inventory() {
    let out = nk_lint(&[
        "check",
        "--json",
        "--root",
        fixture("violating_ws").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let doc = nk_lint::json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let findings = doc.get("findings").unwrap().as_arr().unwrap();
    assert_eq!(findings.len(), 13);
    assert!(findings.iter().any(|f| {
        f.get("rule").unwrap().as_str() == Some("layering")
            && f.get("key").unwrap().as_str() == Some("upward:nk-host")
    }));
    let inv = doc.get("unsafe_inventory").unwrap().as_arr().unwrap();
    assert_eq!(inv.len(), 1);
    assert_eq!(
        inv[0].get("has_safety"),
        Some(&nk_lint::json::Value::Bool(false))
    );
    let summary = doc.get("summary").unwrap();
    assert_eq!(
        summary.get("findings"),
        Some(&nk_lint::json::Value::Num(13.0))
    );
}

#[test]
fn write_baseline_then_check_passes() {
    let dir = std::env::temp_dir().join(format!("nk-lint-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.json");
    let root = fixture("violating_ws");

    let out = nk_lint(&[
        "check",
        "--root",
        root.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
        "--write-baseline",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(baseline.is_file());

    let out = nk_lint(&[
        "check",
        "--root",
        root.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("13 baselined"), "{text}");

    std::fs::remove_dir_all(&dir).unwrap();
}
