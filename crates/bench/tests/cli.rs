//! The `experiments` binary as a user runs it: names are checked before
//! anything runs, and a named experiment prints exactly its section of the
//! golden table.

use std::process::Command;

const GOLDEN: &str = include_str!("../../../tests/golden/experiments.stdout");

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

#[test]
fn an_unknown_name_fails_even_beside_a_known_one() {
    let out = experiments(&["fig11", "fig99"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing runs before the check");
    assert!(String::from_utf8_lossy(&out.stderr).contains("\"fig99\""));
}

#[test]
fn one_experiment_prints_its_section_of_the_golden() {
    let out = experiments(&["fig11"]);
    assert!(out.status.success(), "{out:?}");
    let start = GOLDEN.find("\n== Figure 11:").expect("fig11 in the golden");
    let end = start + 1 + GOLDEN[start + 1..].find("\n== ").expect("a next section");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), GOLDEN[start..end]);
}
