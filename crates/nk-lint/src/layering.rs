//! Rule 6: crate layering.
//!
//! The workspace declares a strict dependency DAG; a crate may only depend
//! on crates in strictly lower layers. The declared order (the arrow means
//! "is depended on by"):
//!
//! ```text
//! nk-types → nk-sim → nk-queue/nk-shmem → nk-fabric → nk-netstack
//!   → nk-engine/nk-guest/nk-service → nk-ctrl → nk-obs → nk-host
//!   → nk-cluster → nk-workload/nk-bench
//! ```
//!
//! The control plane (`nk-ctrl`) and flight recorder (`nk-obs`) sit *below*
//! the host because the host embeds them as scheduler phases; everything
//! cluster-scoped stacks above the host. The offline shim crates (serde &
//! co.) are vendored stand-ins for crates.io packages and are exempt, as is
//! the root `netkernel` facade (it re-exports everything by design) and
//! this linter itself (which must depend on nothing).
//!
//! Violations: an edge to an equal-or-higher layer ("upward edge") or to an
//! `nk-*` crate that is not in the declared DAG at all ("undeclared edge").

use crate::rules::Finding;

/// The declared DAG as (crate, layer) pairs. Equal layers are mutually
/// independent: an edge between them is upward by definition.
pub const LAYERS: &[(&str, u32)] = &[
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

/// Crates allowed to depend on any workspace crate (or none at all) without
/// layering checks.
const EXEMPT: &[&str] = &["netkernel", "nk-lint"];

fn layer_of(name: &str) -> Option<u32> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|(_, l)| *l)
}

/// A dependency edge extracted from a manifest: (dep name, manifest line).
pub type DepEdge = (String, u32);

/// Extract dependency names from Cargo.toml text. Covers the forms the
/// workspace uses: `name.workspace = true`, `name = { ... }`, `name = "v"`,
/// under `[dependencies]`, `[dev-dependencies]`, `[build-dependencies]` and
/// `[target.'...'.dependencies]` sections. `[workspace.dependencies]` is a
/// declaration list, not an edge, and is skipped.
pub fn parse_deps(toml: &str) -> Vec<DepEdge> {
    let mut deps = Vec::new();
    let mut in_dep_section = false;
    for (idx, raw) in toml.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            let section = line.trim_matches(|c| c == '[' || c == ']');
            in_dep_section = (section == "dependencies"
                || section == "dev-dependencies"
                || section == "build-dependencies"
                || (section.starts_with("target.") && section.ends_with(".dependencies")))
                && !section.starts_with("workspace");
            continue;
        }
        if !in_dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(eq) = line.find('=') {
            let key = line[..eq].trim();
            // `nk-types.workspace = true` → dep name is before the dot.
            let name = key.split('.').next().unwrap_or(key).trim_matches('"');
            if !name.is_empty() {
                deps.push((name.to_string(), (idx + 1) as u32));
            }
        }
    }
    deps
}

/// Check one crate's manifest against the DAG. `manifest_rel` is the path
/// used in findings; `crate_name` the package name; `toml` the text.
pub fn check_layering(
    crate_name: &str,
    manifest_rel: &str,
    toml: &str,
    findings: &mut Vec<Finding>,
) {
    if EXEMPT.contains(&crate_name) {
        return;
    }
    let my_layer = layer_of(crate_name);
    for (dep, line) in parse_deps(toml) {
        if !dep.starts_with("nk-") {
            continue; // shims and external crates are not DAG edges
        }
        let Some(dep_layer) = layer_of(&dep) else {
            findings.push(Finding {
                rule: "layering",
                file: manifest_rel.to_string(),
                line,
                message: format!("dependency on `{dep}` which is not in the declared DAG"),
                hint: "add the crate to the DAG in nk-lint's layering table (a \
                       deliberate architecture change) or remove the edge"
                    .to_string(),
                key: format!("undeclared:{dep}"),
            });
            continue;
        };
        let Some(my_layer) = my_layer else {
            // Crate itself unknown: flag once per manifest via the first
            // nk-* edge so new crates get registered in the DAG.
            findings.push(Finding {
                rule: "layering",
                file: manifest_rel.to_string(),
                line,
                message: format!(
                    "crate `{crate_name}` is not in the declared DAG but depends on `{dep}`"
                ),
                hint: "register the crate (and its layer) in nk-lint's layering table".to_string(),
                key: format!("unregistered:{crate_name}"),
            });
            break;
        };
        if dep_layer >= my_layer {
            findings.push(Finding {
                rule: "layering",
                file: manifest_rel.to_string(),
                line,
                message: format!(
                    "upward edge: `{crate_name}` (layer {my_layer}) must not depend on \
                     `{dep}` (layer {dep_layer})"
                ),
                hint: "invert the dependency (move the shared type down, or pass a \
                       callback/trait object) — upward edges break the layered build"
                    .to_string(),
                key: format!("upward:{dep}"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_workspace_and_table_forms() {
        let toml = "[package]\nname = \"x\"\n[dependencies]\nnk-types.workspace = true\n\
                    nk-sim = { path = \"../nk-sim\" }\nserde.workspace = true\n\
                    [dev-dependencies]\nserde_json.workspace = true\n";
        let deps = parse_deps(toml);
        let names: Vec<&str> = deps.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["nk-types", "nk-sim", "serde", "serde_json"]);
        assert_eq!(deps[0].1, 4, "line numbers point into the manifest");
    }

    #[test]
    fn workspace_dependencies_section_is_not_an_edge() {
        let toml = "[workspace.dependencies]\nnk-host = { path = \"crates/nk-host\" }\n";
        assert!(parse_deps(toml).is_empty());
    }

    #[test]
    fn upward_and_undeclared_edges_fire() {
        let toml = "[dependencies]\nnk-host.workspace = true\nnk-widgets.workspace = true\n\
                    nk-types.workspace = true\n";
        let mut f = Vec::new();
        check_layering("nk-engine", "crates/nk-engine/Cargo.toml", toml, &mut f);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("upward edge"));
        assert_eq!(f[0].line, 2);
        assert!(f[1].message.contains("not in the declared DAG"));
        assert_eq!(f[1].line, 3);
    }

    #[test]
    fn equal_layer_edges_are_upward() {
        let toml = "[dependencies]\nnk-guest.workspace = true\n";
        let mut f = Vec::new();
        check_layering("nk-engine", "m", toml, &mut f);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn facade_and_linter_are_exempt() {
        let toml = "[dependencies]\nnk-cluster.workspace = true\n";
        let mut f = Vec::new();
        check_layering("netkernel", "Cargo.toml", toml, &mut f);
        check_layering("nk-lint", "crates/nk-lint/Cargo.toml", toml, &mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn real_shipped_edges_are_clean() {
        // The shipped workspace's actual edge set, crate by crate.
        let cases: &[(&str, &[&str])] = &[
            ("nk-sim", &["nk-types"]),
            ("nk-queue", &["nk-types"]),
            ("nk-shmem", &["nk-types"]),
            ("nk-fabric", &["nk-queue", "nk-sim"]),
            ("nk-netstack", &["nk-types", "nk-fabric", "nk-sim"]),
            ("nk-guest", &["nk-types", "nk-queue", "nk-shmem"]),
            (
                "nk-service",
                &[
                    "nk-types",
                    "nk-queue",
                    "nk-shmem",
                    "nk-fabric",
                    "nk-netstack",
                    "nk-sim",
                ],
            ),
            ("nk-engine", &["nk-types", "nk-queue", "nk-shmem", "nk-sim"]),
            ("nk-ctrl", &["nk-types"]),
            ("nk-obs", &["nk-types", "nk-sim", "nk-ctrl"]),
            (
                "nk-host",
                &[
                    "nk-types",
                    "nk-queue",
                    "nk-shmem",
                    "nk-sim",
                    "nk-fabric",
                    "nk-netstack",
                    "nk-guest",
                    "nk-service",
                    "nk-engine",
                    "nk-ctrl",
                    "nk-obs",
                ],
            ),
            (
                "nk-cluster",
                &[
                    "nk-types",
                    "nk-sim",
                    "nk-guest",
                    "nk-fabric",
                    "nk-netstack",
                    "nk-ctrl",
                    "nk-obs",
                    "nk-host",
                    "nk-queue",
                ],
            ),
            (
                "nk-workload",
                &[
                    "nk-types",
                    "nk-fabric",
                    "nk-guest",
                    "nk-engine",
                    "nk-netstack",
                    "nk-host",
                    "nk-cluster",
                    "nk-ctrl",
                    "nk-obs",
                ],
            ),
            (
                "nk-bench",
                &[
                    "nk-types",
                    "nk-sim",
                    "nk-host",
                    "nk-cluster",
                    "nk-ctrl",
                    "nk-obs",
                    "nk-workload",
                ],
            ),
        ];
        for (krate, deps) in cases {
            let toml = format!(
                "[dependencies]\n{}",
                deps.iter()
                    .map(|d| format!("{d}.workspace = true\n"))
                    .collect::<String>()
            );
            let mut f = Vec::new();
            check_layering(krate, "m", &toml, &mut f);
            assert!(f.is_empty(), "{krate}: {f:?}");
        }
    }
}
