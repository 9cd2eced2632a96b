//! `mmwave-admin` — the operator CLI over campaign journals and metrics
//! snapshots.
//!
//! ```text
//! mmwave-admin status  <journal>                      cell/fleet rollup
//! mmwave-admin history <resource> --journal <path>    lifecycle transition tape
//! mmwave-admin trace   <resource> --journal <path> [--csv | --jsonl] [--decimation N]
//! mmwave-admin metrics <snapshot>... [--jsonl]        merge + dump registries
//! mmwave-admin tail    <journal> [--metrics <path>] [--once] [--interval-ms N]
//! mmwave-admin diff    <journal-a> <journal-b> [--no-locate]
//! mmwave-admin diff    <journal> --replay [--cell <id>] [--failures-only]
//! ```
//!
//! `diff` exits 0 only when every cell is bit-identical (a line this
//! binary cannot rebuild is a skipped row, not a divergence) and fails
//! when either journal has no entries; `trace`
//! exits 0 only when its replay reproduces the journal line, and needs
//! `--features telemetry` for a non-empty capture; every other
//! subcommand exits 0 unless its inputs are unreadable. All the logic
//! lives in `mmwave_bench::admin` where the test suite drives it
//! directly.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mmwave_bench::admin::{
    diff_journals, entry_line, hist_summary, history_report, merge_snapshots, scan_diff_side,
    scan_journal, select_cells, self_replay_diff, status_report, trace_report, TailState,
    TraceFormat,
};
use mmwave_sim::campaign::{compiled_features, Verdict};

const USAGE: &str = "usage: mmwave-admin <status|history|trace|metrics|tail|diff> ...
  status  <journal>
  history <resource> --journal <path>
  trace   <resource> --journal <path> [--csv | --jsonl] [--decimation N]
  metrics <snapshot.jsonl>... [--jsonl]
  tail    <journal> [--metrics <snapshot>] [--once] [--interval-ms N]
  diff    <journal-a> <journal-b> [--no-locate]
  diff    <journal> --replay [--cell <id>] [--failures-only]";

fn fail(msg: &str) -> ExitCode {
    eprintln!("mmwave-admin: {msg}");
    ExitCode::FAILURE
}

fn has(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Positional (non-flag) arguments; flags listed in `valued` consume the
/// following argument.
fn positionals<'a>(args: &'a [String], valued: &[&str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if valued.contains(&a.as_str()) {
            skip = true;
        } else if !a.starts_with("--") {
            out.push(a.as_str());
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        return fail(USAGE);
    };
    let rest = &args[1..];
    match cmd {
        "status" => {
            let pos = positionals(rest, &[]);
            let [journal] = pos.as_slice() else {
                return fail("status takes exactly one journal path");
            };
            match scan_journal(Path::new(journal)) {
                Ok(scan) => {
                    print!("{}", status_report(&scan));
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&e),
            }
        }
        "history" => {
            let pos = positionals(rest, &["--journal"]);
            let [resource] = pos.as_slice() else {
                return fail("history takes exactly one resource (a cell id or fleet member)");
            };
            let Some(journal) = flag_value(rest, "--journal") else {
                return fail("history needs --journal <path>");
            };
            let report =
                scan_journal(Path::new(journal)).and_then(|scan| history_report(&scan, resource));
            match report {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&e),
            }
        }
        "trace" => {
            let pos = positionals(rest, &["--journal", "--decimation"]);
            let [resource] = pos.as_slice() else {
                return fail("trace takes exactly one resource (a cell id or fleet member)");
            };
            let Some(journal) = flag_value(rest, "--journal") else {
                return fail("trace needs --journal <path>");
            };
            let format = match (has(rest, "--csv"), has(rest, "--jsonl")) {
                (false, false) => TraceFormat::Summary,
                (true, false) => TraceFormat::Csv,
                (false, true) => TraceFormat::Jsonl,
                (true, true) => return fail("trace takes one of --csv and --jsonl"),
            };
            let decimation = match flag_value(rest, "--decimation").map(str::parse) {
                None => 1,
                Some(Ok(n)) => n,
                Some(Err(_)) => return fail("--decimation takes a slot count"),
            };
            if !compiled_features().contains("telemetry") {
                eprintln!(
                    "mmwave-admin: built without the telemetry feature, so the trace is empty; \
                     rebuild with --features telemetry"
                );
            }
            let report = scan_journal(Path::new(journal))
                .and_then(|scan| trace_report(&scan, resource, format, decimation));
            match report {
                Ok(r) => {
                    print!("{}", r.text);
                    match r.verdict {
                        Verdict::Reproduced(_) => ExitCode::SUCCESS,
                        Verdict::Digest(d) => fail(&format!(
                            "replay digest {d:016x} does not match the journal"
                        )),
                        v => fail(&format!(
                            "replay does not reproduce the journal line: {v:?}"
                        )),
                    }
                }
                Err(e) => fail(&e),
            }
        }
        "metrics" => {
            let paths: Vec<PathBuf> = positionals(rest, &[])
                .into_iter()
                .map(PathBuf::from)
                .collect();
            if paths.is_empty() {
                return fail("metrics needs at least one snapshot path");
            }
            match merge_snapshots(&paths) {
                Ok(reg) => {
                    if has(rest, "--jsonl") {
                        for line in reg.snapshot_jsonl() {
                            println!("{line}");
                        }
                    } else {
                        print!("{}", reg.prometheus_text());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&e),
            }
        }
        "tail" => {
            let pos = positionals(rest, &["--metrics", "--interval-ms"]);
            let [journal] = pos.as_slice() else {
                return fail("tail takes exactly one journal path");
            };
            let metrics = flag_value(rest, "--metrics").map(PathBuf::from);
            let once = has(rest, "--once");
            let interval_ms: u64 = flag_value(rest, "--interval-ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(500);
            tail_loop(Path::new(journal), metrics.as_deref(), once, interval_ms)
        }
        "diff" => {
            let pos = positionals(rest, &["--cell"]);
            let replay = has(rest, "--replay");
            let localize = !has(rest, "--no-locate");
            let cell = flag_value(rest, "--cell");
            let failures_only = has(rest, "--failures-only");
            if !replay && (cell.is_some() || failures_only) {
                return fail("--cell and --failures-only select what diff --replay replays");
            }
            let report = match (pos.as_slice(), replay) {
                ([journal], true) => scan_journal(Path::new(journal))
                    .and_then(|s| select_cells(&s, cell, failures_only))
                    .map(|s| self_replay_diff(&s)),
                ([a, b], false) => scan_diff_side(Path::new(a)).and_then(|sa| {
                    scan_diff_side(Path::new(b)).map(|sb| diff_journals(&sa, &sb, localize))
                }),
                _ => {
                    return fail("diff takes two journals, or one journal with --replay");
                }
            };
            match report {
                Ok(r) => {
                    print!("{}", r.render());
                    if r.all_identical() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => fail(&e),
            }
        }
        _ => fail(USAGE),
    }
}

/// Follows a journal by byte offset, printing each completed entry as it
/// lands; a torn trailing line stays pending until its newline arrives.
/// With `--metrics`, reprints the merged histogram summary whenever the
/// snapshot file changes. `--once` drains what exists and returns — the
/// CI smoke uses it; interactively the loop runs until interrupted.
fn tail_loop(journal: &Path, metrics: Option<&Path>, once: bool, interval_ms: u64) -> ExitCode {
    let mut state = TailState::default();
    let mut offset = 0u64;
    let mut last_metrics = String::new();
    loop {
        match std::fs::read(journal) {
            Ok(bytes) => {
                if (bytes.len() as u64) < offset {
                    // Truncated/rotated: start over.
                    offset = 0;
                    state = TailState::default();
                    println!("-- journal truncated; following from the top --");
                }
                let chunk = String::from_utf8_lossy(&bytes[offset as usize..]).into_owned();
                offset = bytes.len() as u64;
                for e in state.feed(&chunk) {
                    println!("{}", entry_line(&e));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return fail(&format!("cannot read {}: {e}", journal.display())),
        }
        if let Some(m) = metrics {
            if let Ok(reg) = merge_snapshots(&[m]) {
                let summary = hist_summary(&reg);
                if !summary.is_empty() && summary != last_metrics {
                    print!("{summary}");
                    last_metrics = summary;
                }
            }
        }
        if once {
            if state.torn > 0 {
                println!("-- {} torn line(s) skipped --", state.torn);
            }
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}
