//! Workspace invariant lint engine (`cargo xtask lint`).
//!
//! Four repo-specific invariants that clippy cannot express, each born in
//! an earlier PR and previously enforced only by runtime tests:
//!
//! | lint | invariant | origin |
//! |------|-----------|--------|
//! | `determinism` | no wall clocks / seeded-order containers / OS entropy in digest-affecting crates | PR 3 (replay) |
//! | `hot-path-alloc` | no allocating calls in `#[hot_path]` functions | PR 2 (zero-alloc) |
//! | `telemetry-hygiene` | instrumentation call sites gated by `feature = "telemetry"` | PR 4 (byte-identity) |
//! | `lifecycle-single-writer` | `Transition` literals only in `linkstate.rs` | PR 1 (state machine) |
//!
//! Plus three *transitive* lints over the workspace call graph
//! ([`graph`]/[`resolve`]), which make the per-file contracts hold
//! across call boundaries:
//!
//! | lint | invariant |
//! |------|-----------|
//! | `hot-path-closure` | everything *reachable from* a `#[hot_path]` root is allocation-free |
//! | `hot-path-panic` | no `unwrap`/`expect`/`panic!`/bare slice indexing in the hot-path closure |
//! | `determinism-taint` | no nondeterminism source reachable from a digest/fingerprint/journal sink |
//!
//! Plus two meta-lints on the escape hatch itself: `malformed-allow`
//! (suppression without a reason) and `stale-allow` (suppression that no
//! longer suppresses anything).
//!
//! The engine is AST-free by necessity (offline build, no `syn`): lints
//! run over a position-preserving scrubbed view of each file ([`scrub`])
//! with structural region detection for cfg gates ([`regions`]). That is
//! exact for the token- and region-level contracts enforced here, and the
//! fixture corpus in `tests/fixtures/` pins both directions: known-bad
//! snippets must fire, known-clean idioms must not.

pub mod allow;
pub mod diag;
pub mod graph;
pub mod lints;
pub mod regions;
pub mod resolve;
pub mod scrub;

use diag::Finding;
use std::path::{Path, PathBuf};

/// One workspace source file: its path relative to the workspace root
/// (used for lint scoping) and its contents.
pub struct SourceFile {
    pub rel: PathBuf,
    pub src: String,
}

/// Runs the per-file lint passes plus the allow layer over one file.
/// The transitive graph lints need the whole file set — use
/// [`lint_files`] for those.
pub fn lint_file(file: &SourceFile) -> Vec<Finding> {
    let scrubbed = scrub::scrub(&file.src);
    let (allows, mut findings) = allow::parse_allows(&file.rel, &scrubbed, &file.src);
    findings.extend(lints::determinism::run(&file.rel, &file.src, &scrubbed));
    findings.extend(lints::hotpath::run(&file.rel, &file.src, &scrubbed));
    findings.extend(lints::telemetry::run(&file.rel, &file.src, &scrubbed));
    findings.extend(lints::lifecycle::run(&file.rel, &file.src, &scrubbed));
    allow::apply_allows(&file.rel, &file.src, &scrubbed, &allows, findings)
}

/// Runs the full engine — per-file passes *and* the transitive
/// call-graph lints — over a file set, with the allow layer applied per
/// file after the union (so an `xtask-allow(hot-path-closure)` hatch
/// suppresses a graph finding exactly like a per-file one, and unused
/// hatches still surface as `stale-allow`).
pub fn lint_files(files: &[SourceFile]) -> Vec<Finding> {
    let scrubbed: Vec<scrub::Scrubbed> = files.iter().map(|f| scrub::scrub(&f.src)).collect();
    let mut raw: Vec<Finding> = Vec::new();
    let mut allows_per_file = Vec::with_capacity(files.len());
    for (f, s) in files.iter().zip(&scrubbed) {
        let (allows, bad) = allow::parse_allows(&f.rel, s, &f.src);
        allows_per_file.push(allows);
        raw.extend(bad);
        raw.extend(lints::determinism::run(&f.rel, &f.src, s));
        raw.extend(lints::hotpath::run(&f.rel, &f.src, s));
        raw.extend(lints::telemetry::run(&f.rel, &f.src, s));
        raw.extend(lints::lifecycle::run(&f.rel, &f.src, s));
    }
    let g = graph::build(files, &scrubbed);
    raw.extend(lints::closure::run(files, &scrubbed, &g));
    raw.extend(lints::panic::run(files, &scrubbed, &g));
    raw.extend(lints::taint::run(files, &scrubbed, &g));
    let mut findings = Vec::new();
    for ((f, s), allows) in files.iter().zip(&scrubbed).zip(&allows_per_file) {
        let mine: Vec<Finding> = raw.iter().filter(|fi| fi.file == f.rel).cloned().collect();
        findings.extend(allow::apply_allows(&f.rel, &f.src, s, allows, mine));
    }
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.lint).cmp(&(&b.file, b.line, b.col, b.lint)));
    findings
}

/// Collects every `.rs` file under `root/crates`, skipping build output
/// and the lint engine's own deliberately-violating fixture corpus.
pub fn collect_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    walk(&root.join("crates"), root, &mut files)?;
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let src = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .to_path_buf();
            out.push(SourceFile { rel, src });
        }
    }
    Ok(())
}

/// One line counting the well-formed `xtask-allow` directives per lint,
/// most-used first, over the files outside `crates/xtask` (whose sources
/// name the hatch on purpose). `cargo xtask lint --stats` prints it, so
/// the hatch count is read from the tool rather than from a grep.
pub fn allow_summary(files: &[SourceFile], scrubbed: &[scrub::Scrubbed]) -> String {
    let mut counts = std::collections::BTreeMap::<String, usize>::new();
    for (f, s) in files.iter().zip(scrubbed) {
        if !f.rel.starts_with("crates/xtask") {
            for a in allow::parse_allows(&f.rel, s, &f.src).0 {
                *counts.entry(a.lint).or_default() += 1;
            }
        }
    }
    let mut counts: Vec<(String, usize)> = counts.into_iter().collect();
    // Stable: equal counts stay in lint-name order.
    counts.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    let total: usize = counts.iter().map(|(_, n)| n).sum();
    let per_lint: Vec<String> = counts.iter().map(|(l, n)| format!("{n} {l}")).collect();
    format!(
        "xtask-allow: {total} outside crates/xtask ({})",
        per_lint.join(", ")
    )
}

/// The directories outside `crates/` whose code calls into the
/// workspace: the root package's library, examples and tests, and the
/// benchmark harness with its tests (`perfbench/tests/alloc.rs` installs
/// `CountingAllocator`).
pub const MENTION_DIRS: &[&str] = &[
    "src",
    "examples",
    "tests",
    "perfbench/src",
    "perfbench/tests",
];

/// Every identifier that the code under `root`'s [`MENTION_DIRS`] names,
/// comments and literals excluded. A missing directory contributes
/// nothing. The roots of [`graph::CallGraph::unreached`].
pub fn mentioned_names(root: &Path) -> Result<std::collections::BTreeSet<String>, String> {
    let mut files = Vec::new();
    for dir in MENTION_DIRS.iter().map(|d| root.join(d)) {
        if dir.is_dir() {
            walk(&dir, root, &mut files)?;
        }
    }
    let mut names = std::collections::BTreeSet::new();
    for f in &files {
        let text = scrub::scrub(&f.src).text;
        for tok in text.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
            if tok.starts_with(|c: char| c.is_alphabetic() || c == '_') {
                names.insert(tok.to_string());
            }
        }
    }
    Ok(names)
}

/// Builds the workspace call graph over a file set (scrubs internally).
/// Used by `cargo xtask lint --graph` / `--stats` and by tests.
pub fn build_graph(files: &[SourceFile]) -> (Vec<scrub::Scrubbed>, graph::CallGraph) {
    let scrubbed: Vec<scrub::Scrubbed> = files.iter().map(|f| scrub::scrub(&f.src)).collect();
    let g = graph::build(files, &scrubbed);
    (scrubbed, g)
}
