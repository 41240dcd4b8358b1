//! The rule passes over tokenized source files.
//!
//! Five token-level rules guard the determinism invariants of the parallel
//! datapath (the sixth — crate layering — lives in [`crate::layering`]):
//!
//! | id                  | invariant                                          |
//! |---------------------|----------------------------------------------------|
//! | `hash-order`        | no hash-ordered containers in datapath crates      |
//! | `wall-clock`        | no ambient time/randomness in any workspace crate  |
//! | `thread-identity`   | thread ids must not feed data paths                |
//! | `cross-shard-locks` | SPSC edges are the only cross-shard channel        |
//! | `unsafe-audit`      | every `unsafe` carries an adjacent `// SAFETY:`    |
//!
//! A finding is suppressed by an inline `// nk-lint: allow(<rule>) — reason`
//! on the offending line or in the comment block directly above it, or by a
//! file-scoped `// nk-lint: allow-file(<rule>) — reason` anywhere in the
//! file. The reason is mandatory: an allow without one does not suppress.

use crate::lex::SourceFile;

/// Crates whose datapath must stay free of hash-ordered iteration and
/// thread identity (the byte-identical replay set of PRs 6, 8 and 9).
pub const DATAPATH_CRATES: &[&str] = &[
    "nk-engine",
    "nk-netstack",
    "nk-host",
    "nk-fabric",
    "nk-cluster",
    "nk-service",
    "nk-guest",
    "nk-obs",
    "nk-ctrl",
];

/// Crates whose code runs inside a worker lane: locks here could serialize
/// or reorder cross-shard traffic, so the wait-free SPSC edges
/// (`uplink_pair`, `nk_queue::unbounded`) must remain the only cross-shard
/// channel.
pub const LANE_CRATES: &[&str] = &[
    "nk-engine",
    "nk-netstack",
    "nk-guest",
    "nk-service",
    "nk-fabric",
    "nk-shmem",
    "nk-queue",
];

/// Crates exempt from the wall-clock/randomness ban: none. The only wall
/// clock in the repository is `examples/nkbench/src/clock.rs`, which is not
/// a workspace crate and carries its own file-scoped allow.
pub const WALL_CLOCK_EXEMPT: &[&str] = &[];

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`hash-order`, `wall-clock`, ...).
    pub rule: &'static str,
    /// File path relative to the workspace root.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: String,
    /// Line-number-independent identity used for baseline matching:
    /// `<snippet>#<ordinal>` where ordinal counts occurrences of the same
    /// snippet within this (rule, file).
    pub key: String,
}

/// One `unsafe` occurrence, for the machine-readable inventory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsafeSite {
    /// File path relative to the workspace root.
    pub file: String,
    /// 1-based line of the `unsafe` token.
    pub line: u32,
    /// `impl`, `fn`, `trait`, `block` or `other`.
    pub kind: String,
    /// True when an adjacent `// SAFETY:` comment (or a chained sibling)
    /// justifies it.
    pub has_safety: bool,
}

/// Scope of an allow directive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AllowScope {
    Line,
    File,
}

/// Parse every `nk-lint: allow(...)` / `allow-file(...)` directive in a
/// comment string. Returns (scope, rule, has_reason).
fn parse_allows(text: &str) -> Vec<(AllowScope, String, bool)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("nk-lint:") {
        rest = &rest[pos + "nk-lint:".len()..];
        let trimmed = rest.trim_start();
        let scope = if trimmed.starts_with("allow-file(") {
            Some(AllowScope::File)
        } else if trimmed.starts_with("allow(") {
            Some(AllowScope::Line)
        } else {
            None
        };
        if let Some(scope) = scope {
            if let Some(open) = trimmed.find('(') {
                if let Some(close) = trimmed[open..].find(')') {
                    let rule = trimmed[open + 1..open + close].trim().to_string();
                    let after = &trimmed[open + close + 1..];
                    // A reason is whatever substantive text follows the
                    // closing paren (dashes/colons stripped).
                    let reason = after
                        .trim_start_matches(|c: char| {
                            c.is_whitespace() || matches!(c, '-' | '—' | '–' | ':' | ',')
                        })
                        .trim();
                    out.push((scope, rule, !reason.is_empty()));
                }
            }
        }
    }
    out
}

/// Allow-directive index for one file.
struct Allows {
    /// Rules allowed for the whole file (with a reason).
    file_scope: Vec<String>,
    /// (line, rule) inline allows with a reason.
    line_scope: Vec<(u32, String)>,
    /// Lines carrying an allow for `rule` but no reason (finding kept, hint
    /// upgraded).
    missing_reason: Vec<(u32, String)>,
}

fn index_allows(file: &SourceFile) -> Allows {
    let mut a = Allows {
        file_scope: Vec::new(),
        line_scope: Vec::new(),
        missing_reason: Vec::new(),
    };
    for (idx, text) in file.comment_text.iter().enumerate() {
        if text.is_empty() {
            continue;
        }
        let line = (idx + 1) as u32;
        for (scope, rule, has_reason) in parse_allows(text) {
            match (scope, has_reason) {
                (AllowScope::File, true) => a.file_scope.push(rule),
                (AllowScope::Line, true) => a.line_scope.push((line, rule)),
                (_, false) => a.missing_reason.push((line, rule)),
            }
        }
    }
    a
}

impl Allows {
    /// True when a finding of `rule` at `line` is suppressed: file-scope
    /// allow, same-line allow, or an allow in the comment block directly
    /// above the line.
    fn suppresses(&self, file: &SourceFile, rule: &str, line: u32) -> bool {
        if self.file_scope.iter().any(|r| r == rule) {
            return true;
        }
        let mut l = line;
        loop {
            if self.line_scope.iter().any(|(al, r)| *al == l && r == rule) {
                return true;
            }
            // Walk up through the contiguous comment block above.
            if l == 0 || !file.is_comment_only(l.saturating_sub(1)) {
                // Also accept an allow on the line directly above even if
                // that line has code (trailing-comment style).
                break;
            }
            l -= 1;
        }
        // One more step: the single line directly above, comment-only or
        // not, may carry the allow as a trailing comment.
        line >= 1
            && self
                .line_scope
                .iter()
                .any(|(al, r)| *al == line - 1 && r == rule)
    }

    /// True when `line` has an allow for `rule` that lacks a reason.
    fn missing_reason_near(&self, rule: &str, line: u32) -> bool {
        self.missing_reason
            .iter()
            .any(|(al, r)| (*al == line || *al + 1 == line) && r == rule)
    }
}

/// Banned-pattern table entry: a token sequence (where `"::"` consumes two
/// consecutive `:` punct tokens) plus the display form.
struct Pattern {
    seq: &'static [&'static str],
    display: &'static str,
}

const HASH_ORDER: &[Pattern] = &[
    Pattern {
        seq: &["HashMap"],
        display: "HashMap",
    },
    Pattern {
        seq: &["HashSet"],
        display: "HashSet",
    },
    Pattern {
        seq: &["RandomState"],
        display: "RandomState",
    },
];

const WALL_CLOCK: &[Pattern] = &[
    Pattern {
        seq: &["Instant", "::", "now"],
        display: "Instant::now",
    },
    Pattern {
        seq: &["SystemTime"],
        display: "SystemTime",
    },
    Pattern {
        seq: &["thread_rng"],
        display: "thread_rng",
    },
    Pattern {
        seq: &["ThreadRng"],
        display: "ThreadRng",
    },
    Pattern {
        seq: &["from_entropy"],
        display: "from_entropy",
    },
    Pattern {
        seq: &["getrandom"],
        display: "getrandom",
    },
];

const THREAD_IDENTITY: &[Pattern] = &[
    Pattern {
        seq: &["thread", "::", "current"],
        display: "thread::current",
    },
    Pattern {
        seq: &["ThreadId"],
        display: "ThreadId",
    },
];

const CROSS_SHARD_LOCKS: &[Pattern] = &[
    Pattern {
        seq: &["Mutex"],
        display: "Mutex",
    },
    Pattern {
        seq: &["RwLock"],
        display: "RwLock",
    },
    Pattern {
        seq: &["Condvar"],
        display: "Condvar",
    },
    Pattern {
        seq: &["mpsc"],
        display: "mpsc",
    },
];

/// Match `pat` against the token stream starting at index `i`. Returns the
/// index one past the match.
fn match_at(file: &SourceFile, i: usize, pat: &Pattern) -> Option<usize> {
    let mut ti = i;
    for part in pat.seq {
        if *part == "::" {
            for _ in 0..2 {
                let t = file.tokens.get(ti)?;
                if t.is_ident || t.text != ":" {
                    return None;
                }
                ti += 1;
            }
        } else {
            let t = file.tokens.get(ti)?;
            if !t.is_ident || t.text != *part {
                return None;
            }
            ti += 1;
        }
    }
    Some(ti)
}

/// Occurrences of any pattern in the file: (line, display).
fn scan(file: &SourceFile, pats: &[Pattern]) -> Vec<(u32, &'static str)> {
    let mut hits = Vec::new();
    for i in 0..file.tokens.len() {
        for pat in pats {
            if match_at(file, i, pat).is_some() {
                hits.push((file.tokens[i].line, pat.display));
                break;
            }
        }
    }
    hits
}

/// Assign baseline keys (`snippet#ordinal`) to hits of one rule in one file.
fn keyed(hits: Vec<(u32, String)>) -> Vec<(u32, String, String)> {
    let mut counts: Vec<(String, u32)> = Vec::new();
    let mut out = Vec::new();
    for (line, snippet) in hits {
        let ordinal = match counts.iter_mut().find(|(s, _)| *s == snippet) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                counts.push((snippet.clone(), 0));
                0
            }
        };
        let key = format!("{snippet}#{ordinal}");
        out.push((line, snippet, key));
    }
    out
}

/// Run one banned-pattern rule over a file, applying allow directives.
fn pattern_rule(
    rule: &'static str,
    pats: &[Pattern],
    file: &SourceFile,
    hint: &str,
    findings: &mut Vec<Finding>,
) {
    let allows = index_allows(file);
    let hits: Vec<(u32, String)> = scan(file, pats)
        .into_iter()
        .map(|(l, d)| (l, d.to_string()))
        .collect();
    for (line, snippet, key) in keyed(hits) {
        if allows.suppresses(file, rule, line) {
            continue;
        }
        let hint = if allows.missing_reason_near(rule, line) {
            format!(
                "an `nk-lint: allow({rule})` was found but carries no reason — \
                 append `— <why this is safe>`"
            )
        } else {
            hint.to_string()
        };
        findings.push(Finding {
            rule,
            file: file.rel_path.clone(),
            line,
            message: format!("`{snippet}` is banned here"),
            hint,
            key,
        });
    }
}

/// Rule 1: hash-ordered containers in datapath crates.
pub fn hash_order(crate_name: &str, file: &SourceFile, findings: &mut Vec<Finding>) {
    if !DATAPATH_CRATES.contains(&crate_name) {
        return;
    }
    pattern_rule(
        "hash-order",
        HASH_ORDER,
        file,
        "hash iteration order varies per process and breaks byte-identical replay; \
         use BTreeMap/BTreeSet, or prove the container is never iterated and add \
         `// nk-lint: allow(hash-order) — <reason>`",
        findings,
    );
}

/// Rule 2: ambient wall-clock time / randomness.
pub fn wall_clock(crate_name: &str, file: &SourceFile, findings: &mut Vec<Finding>) {
    if WALL_CLOCK_EXEMPT.contains(&crate_name) {
        return;
    }
    pattern_rule(
        "wall-clock",
        WALL_CLOCK,
        file,
        "ambient time/entropy makes runs unrepeatable; use the virtual time the \
         step loop passes down (`now_ns`) or the seeded `nk_sim::rng` instead",
        findings,
    );
}

/// Rule 3: thread identity feeding datapath decisions.
pub fn thread_identity(crate_name: &str, file: &SourceFile, findings: &mut Vec<Finding>) {
    if !DATAPATH_CRATES.contains(&crate_name) {
        return;
    }
    pattern_rule(
        "thread-identity",
        THREAD_IDENTITY,
        file,
        "behaviour keyed on worker-thread identity varies with the shard deal; \
         key on HostId/lane key instead",
        findings,
    );
}

/// Rule 4: blocking synchronization in lane-executed crates.
pub fn cross_shard_locks(crate_name: &str, file: &SourceFile, findings: &mut Vec<Finding>) {
    if !LANE_CRATES.contains(&crate_name) {
        return;
    }
    pattern_rule(
        "cross-shard-locks",
        CROSS_SHARD_LOCKS,
        file,
        "lane-executed code must not block or exchange data through locks; the \
         wait-free SPSC edges (`uplink_pair`, `nk_queue::unbounded`) are the only \
         cross-shard channel — if the lock is provably lane-local, add \
         `// nk-lint: allow(cross-shard-locks) — <reason>`",
        findings,
    );
}

/// Rule 5: `unsafe` without an adjacent `// SAFETY:` comment. Also returns
/// the full unsafe inventory for the machine-readable report.
pub fn unsafe_audit(
    _crate_name: &str,
    file: &SourceFile,
    findings: &mut Vec<Finding>,
    inventory: &mut Vec<UnsafeSite>,
) {
    let allows = index_allows(file);
    let mut hits: Vec<(u32, usize)> = Vec::new();
    for (i, t) in file.tokens.iter().enumerate() {
        if t.is_ident && t.text == "unsafe" {
            hits.push((t.line, i));
        }
    }
    // Lines whose unsafe passed — lets `unsafe impl Send`/`unsafe impl Sync`
    // pairs share one SAFETY block (the idiomatic form).
    let mut passed_lines: Vec<u32> = Vec::new();
    let mut keyed_hits = keyed(
        hits.iter()
            .map(|(l, _)| (*l, "unsafe".to_string()))
            .collect(),
    );
    for ((line, _snippet, key), (_, tok_idx)) in keyed_hits.drain(..).zip(hits.iter()) {
        let kind = match file.tokens.get(tok_idx + 1) {
            Some(t) if t.text == "impl" => "impl",
            Some(t) if t.text == "fn" => "fn",
            Some(t) if t.text == "trait" => "trait",
            Some(t) if t.text == "{" => "block",
            _ => "other",
        };
        let same_line = file.comment_on(line);
        let above = file.comment_block_above(line);
        let mut ok = same_line.contains("SAFETY:")
            || above.contains("SAFETY:")
            || above.contains("# Safety");
        // Chained sibling: the previous line holds an `unsafe` that passed.
        if !ok && line >= 1 && passed_lines.contains(&(line - 1)) {
            ok = true;
        }
        if ok {
            passed_lines.push(line);
        }
        inventory.push(UnsafeSite {
            file: file.rel_path.clone(),
            line,
            kind: kind.to_string(),
            has_safety: ok,
        });
        if ok || allows.suppresses(file, "unsafe-audit", line) {
            continue;
        }
        findings.push(Finding {
            rule: "unsafe-audit",
            file: file.rel_path.clone(),
            line,
            message: format!("`unsafe` {kind} without an adjacent `// SAFETY:` comment"),
            hint: "state the invariant this relies on (single producer/consumer, \
                   Acquire/Release pairing, exclusive ownership, ...) in a \
                   `// SAFETY:` comment directly above"
                .to_string(),
            key,
        });
    }
}

/// Run every token-level rule over one file.
pub fn run_all(
    crate_name: &str,
    file: &SourceFile,
    findings: &mut Vec<Finding>,
    inventory: &mut Vec<UnsafeSite>,
) {
    hash_order(crate_name, file, findings);
    wall_clock(crate_name, file, findings);
    thread_identity(crate_name, file, findings);
    cross_shard_locks(crate_name, file, findings);
    unsafe_audit(crate_name, file, findings, inventory);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::tokenize;

    fn run(crate_name: &str, src: &str) -> (Vec<Finding>, Vec<UnsafeSite>) {
        let f = tokenize("x.rs", src);
        let mut findings = Vec::new();
        let mut inv = Vec::new();
        run_all(crate_name, &f, &mut findings, &mut inv);
        (findings, inv)
    }

    #[test]
    fn hash_order_fires_only_in_datapath_crates() {
        let src = "use std::collections::HashMap;\n";
        let (f, _) = run("nk-engine", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hash-order");
        assert_eq!(f[0].line, 1);
        let (f, _) = run("nk-lint", src);
        assert!(f.is_empty(), "non-datapath crate must not fire");
    }

    #[test]
    fn inline_allow_with_reason_suppresses() {
        let src = "// nk-lint: allow(hash-order) — lookup only, never iterated\n\
                   use std::collections::HashMap;\n";
        let (f, _) = run("nk-engine", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_without_reason_keeps_the_finding() {
        let src = "// nk-lint: allow(hash-order)\nuse std::collections::HashMap;\n";
        let (f, _) = run("nk-engine", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].hint.contains("no reason"), "{}", f[0].hint);
    }

    #[test]
    fn allow_file_suppresses_everywhere() {
        let src = "// nk-lint: allow-file(cross-shard-locks) — lane-local\n\
                   use std::sync::Mutex;\nfn f() { let _m: Mutex<u8> = Mutex::new(0); }\n";
        let (f, _) = run("nk-fabric", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wall_clock_and_thread_identity_fire() {
        let src = "fn f() { let t = Instant::now(); let id = thread::current().id(); }\n";
        let (f, _) = run("nk-cluster", src);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"wall-clock"), "{rules:?}");
        assert!(rules.contains(&"thread-identity"), "{rules:?}");
    }

    #[test]
    fn string_and_comment_mentions_do_not_fire() {
        let src = "// HashMap would be wrong here\nfn f() { let s = \"HashMap\"; }\n";
        let (f, _) = run("nk-engine", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_without_safety_fires_and_inventory_records_all() {
        let src = "fn f() { unsafe { g() } }\n\
                   // SAFETY: justified\nfn h() { unsafe { g() } }\n";
        let (f, inv) = run("nk-queue", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unsafe-audit");
        assert_eq!(f[0].line, 1);
        assert_eq!(inv.len(), 2);
        assert!(!inv[0].has_safety && inv[1].has_safety);
    }

    #[test]
    fn chained_unsafe_impls_share_one_safety_comment() {
        let src = "// SAFETY: one producer, one consumer\n\
                   unsafe impl<T: Send> Send for Inner<T> {}\n\
                   unsafe impl<T: Send> Sync for Inner<T> {}\n";
        let (f, inv) = run("nk-queue", src);
        assert!(f.is_empty(), "{f:?}");
        assert!(inv.iter().all(|s| s.has_safety));
    }

    #[test]
    fn keys_are_line_independent_ordinals() {
        let src = "use std::collections::HashMap;\ntype T = HashMap<u8, u8>;\n";
        let (f, _) = run("nk-engine", src);
        assert_eq!(f[0].key, "HashMap#0");
        assert_eq!(f[1].key, "HashMap#1");
    }
}
