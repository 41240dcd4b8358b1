//! The crate DAG points strictly down this rank table: a crate may depend
//! only on crates of lower rank, in any dependency section. `nk-ctrl` sits
//! below the host because the host embeds it, and `nk-obs` below it too,
//! though only the cluster records into it; everything cluster-scoped
//! stacks above the host. The root facade re-exports everything by
//! design and the offline shims under `crates/shims/` stand in for crates.io
//! packages, so neither is ranked. Adding a crate or an edge across the
//! table is an architecture change: edit the table in the same PR.

use std::fs;
use std::path::Path;

const RANKS: &[(&str, u32)] = &[
    ("nk-types", 0),
    ("nk-sim", 1),
    ("nk-queue", 2),
    ("nk-shmem", 2),
    ("nk-fabric", 3),
    ("nk-netstack", 4),
    ("nk-engine", 5),
    ("nk-guest", 5),
    ("nk-service", 5),
    ("nk-ctrl", 6),
    ("nk-obs", 7),
    ("nk-host", 8),
    ("nk-cluster", 9),
    ("nk-workload", 10),
    ("nk-bench", 11),
];

fn rank(name: &str) -> Option<u32> {
    RANKS.iter().find(|(n, _)| *n == name).map(|(_, r)| *r)
}

/// Every layering violation in one crate manifest.
fn violations(manifest: &str) -> Vec<String> {
    let lines = || manifest.lines().map(str::trim);
    let name = lines()
        .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
        .expect("a package name");
    let Some(mine) = rank(name) else {
        return vec![format!("{name} is not in the rank table")];
    };
    let mut found = Vec::new();
    let mut in_deps = false;
    for line in lines() {
        if line.starts_with('[') {
            in_deps = matches!(
                line,
                "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]"
            );
            continue;
        }
        let dep = line.split(['.', '=', ' ']).next().unwrap_or("");
        if !in_deps || !dep.starts_with("nk-") {
            continue;
        }
        match rank(dep) {
            None => found.push(format!("{name} -> {dep}, which is not in the rank table")),
            Some(r) if r >= mine => found.push(format!(
                "{name} ({mine}) -> {dep} ({r}) does not point down"
            )),
            Some(_) => {}
        }
    }
    found
}

#[test]
fn crate_dependencies_point_strictly_down_the_rank_table() {
    let mut ranked_dirs = 0;
    for entry in fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("crates")).unwrap() {
        // `crates/shims/` holds the unranked shims and has no manifest itself.
        if let Ok(manifest) = fs::read_to_string(entry.unwrap().path().join("Cargo.toml")) {
            assert_eq!(violations(&manifest), Vec::<String>::new());
            ranked_dirs += 1;
        }
    }
    assert_eq!(ranked_dirs, RANKS.len(), "a ranked crate has no directory");

    let fabric = "[package]\nname = \"nk-fabric\"\n[dependencies]\nnk-sim.workspace = true\n\
                  nk-host = { path = \"../nk-host\" }\n[dev-dependencies]\nnk-mystery = \"1\"\n";
    assert_eq!(
        violations(fabric),
        [
            "nk-fabric (3) -> nk-host (8) does not point down",
            "nk-fabric -> nk-mystery, which is not in the rank table"
        ]
    );
    let mystery = "[package]\nname = \"nk-mystery\"\n[dependencies]\nnk-types.workspace = true\n";
    assert_eq!(violations(mystery), ["nk-mystery is not in the rank table"]);
}
