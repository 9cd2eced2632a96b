//! `cargo xtask` — workspace automation. The only subcommand today is
//! `lint`, the invariant lint engine (see `lib.rs` for the lint table).
//!
//! Exit status: 0 when the workspace is clean, 1 when any finding
//! survives suppression, 2 on usage or I/O errors — so CI can tell
//! "violations" from "the tool itself broke".

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask command `{other}`\n");
            usage();
            ExitCode::from(2)
        }
        None => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!("usage: cargo xtask lint [--json] [--graph] [--stats] [--root <path>]");
    eprintln!();
    eprintln!("  lint     run the invariant lints (determinism, hot-path-alloc,");
    eprintln!("           telemetry-hygiene, lifecycle-single-writer) plus the");
    eprintln!("           transitive call-graph lints (hot-path-closure,");
    eprintln!("           hot-path-panic, determinism-taint) over crates/");
    eprintln!("  --json   emit findings as a JSON array on stdout (for CI diffing)");
    eprintln!("  --graph  export the workspace call graph to results/callgraph.json");
    eprintln!("           and results/callgraph.dot");
    eprintln!("  --stats  print graph summary stats (nodes/edges, hot-path closure");
    eprintln!("           size, taint source/sink counts), the xtask-allow count");
    eprintln!("           per lint outside crates/xtask, and the non-test fns no");
    eprintln!("           main or outside-crates mention reaches (count, then each");
    eprintln!("           as file:line), on stderr");
    eprintln!("  --root   workspace root (default: parent of crates/xtask at build time,");
    eprintln!("           i.e. the repo checkout the binary was built from)");
}

fn lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut graph = false;
    let mut stats = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--graph" => graph = true,
            "--stats" => stats = true,
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown lint flag `{other}`");
                usage();
                return ExitCode::from(2);
            }
        }
    }
    // `cargo xtask` runs from wherever the user is; the workspace root is
    // two levels up from this crate's manifest.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .expect("xtask lives at <root>/crates/xtask")
            .to_path_buf()
    });
    let files = match xtask::collect_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    let findings = xtask::lint_files(&files);
    if graph || stats {
        let (scrubbed, g) = xtask::build_graph(&files);
        if stats {
            eprintln!("{}", g.stats(&scrubbed).render());
            eprintln!("{}", xtask::allow_summary(&files, &scrubbed));
            // A report only: an unreadable directory never fails the lint.
            match xtask::mentioned_names(&root) {
                Ok(names) => {
                    let (unreached, total) = g.unreached(&names);
                    eprintln!("unreached: {} of {total} non-test fns", unreached.len());
                    for i in unreached {
                        let n = &g.nodes[i];
                        let file = files[n.file].rel.display();
                        eprintln!("  {file}:{} {}", n.line, n.display());
                    }
                }
                Err(e) => eprintln!("xtask lint: unreached report skipped: {e}"),
            }
        }
        if graph {
            let dir = root.join("results");
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("xtask lint: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
            let json_path = dir.join("callgraph.json");
            let dot_path = dir.join("callgraph.dot");
            if let Err(e) = std::fs::write(&json_path, g.to_json(&files, &scrubbed)) {
                eprintln!("xtask lint: cannot write {}: {e}", json_path.display());
                return ExitCode::from(2);
            }
            if let Err(e) = std::fs::write(&dot_path, g.to_dot(&scrubbed)) {
                eprintln!("xtask lint: cannot write {}: {e}", dot_path.display());
                return ExitCode::from(2);
            }
            eprintln!(
                "xtask lint: wrote {} and {}",
                json_path.display(),
                dot_path.display()
            );
        }
    }
    if json {
        println!("{}", xtask::diag::report_json(&findings));
    } else {
        for f in &findings {
            eprint!("{}", f.render());
            eprintln!();
        }
    }
    if findings.is_empty() {
        if !json {
            eprintln!("xtask lint: workspace clean (all invariants hold)");
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} finding(s)", findings.len());
        ExitCode::from(1)
    }
}
