//! Bounded property-based scenario fuzzing against the invariant oracles.
//!
//! ```text
//! cargo run --release -p mmwave-bench --bin fuzz -- \
//!     [--cases N] [--seed NAME] [--journal PATH] [--corpus PATH] [--inject-wedge]
//! ```
//!
//! Draws `N` random-but-valid scenario specs (default 64) from the
//! deterministic stream named by `--seed` (default `fuzz-smoke`) and runs
//! each against the oracles in `mmwave_sim::fuzz`: lifecycle never
//! wedges, outages recover within the spec's horizon, runs validate,
//! digests are deterministic, clean specs are bit-identical to clean
//! constructor runs, and fleet digests are worker-count-invariant.
//!
//! Every generated spec's canonical string is appended to `--corpus`
//! (the CI corpus artifact). On an oracle violation the failing spec is
//! shrunk and its replayable journal line is appended to `--journal`
//! (after the journal's whole lines; a torn tail is dropped), so
//!
//! ```text
//! cargo run --release -p mmwave-bench --bin mmwave-admin -- diff <journal> --replay
//! ```
//!
//! reproduces the counterexample bit-identically.
//!
//! `--inject-wedge` enables the deliberately-broken test-only oracle that
//! flags any lifecycle transition as a wedge — CI uses it to prove the
//! find → shrink → replay loop end to end (the run must exit 1).
//!
//! Exit code 0 when all cases pass, 1 on a counterexample, 2 on usage
//! errors.

use mmwave_sim::campaign::LineFile;
use mmwave_sim::fuzz::{run_fuzz, OracleOptions};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fuzz [--cases N] [--seed NAME] [--journal PATH] [--corpus PATH] [--inject-wedge]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut cases: u32 = 64;
    let mut seed = "fuzz-smoke".to_string();
    let mut journal: Option<String> = None;
    let mut corpus: Option<String> = None;
    let mut opts = OracleOptions::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cases" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cases = v,
                None => return usage(),
            },
            "--seed" => match it.next() {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--journal" => match it.next() {
                Some(v) => journal = Some(v),
                None => return usage(),
            },
            "--corpus" => match it.next() {
                Some(v) => corpus = Some(v),
                None => return usage(),
            },
            "--inject-wedge" => opts.inject_wedge = true,
            "--help" | "-h" => return usage(),
            _ => return usage(),
        }
    }

    println!(
        "fuzz: {cases} case(s) from stream {seed:?}{}",
        if opts.inject_wedge {
            " with the injected wedge oracle (expecting a counterexample)"
        } else {
            ""
        }
    );
    let report = run_fuzz(&seed, cases, &opts);

    if let Some(path) = corpus {
        let body = report.corpus.join("\n") + "\n";
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("fuzz: cannot write corpus {path}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "fuzz: wrote {} corpus spec(s) to {path}",
            report.corpus.len()
        );
    }

    match &report.counterexample {
        None => {
            println!("fuzz: {} case(s) run, all oracles green", report.cases_run);
            ExitCode::SUCCESS
        }
        Some(cx) => {
            println!(
                "fuzz: case {} FAILED oracle {}: {}",
                report.cases_run, cx.failure.oracle, cx.failure.detail
            );
            println!("fuzz: original spec: {}", cx.original.spec_string());
            println!("fuzz: shrunk spec:   {}", cx.spec.spec_string());
            if let Some(path) = journal {
                let write = LineFile::open_journal(Path::new(&path))
                    .and_then(|(mut file, _)| file.append([cx.entry.to_json()]));
                match write {
                    Ok(()) => println!(
                        "fuzz: counterexample journal line appended to {path} — \
                         replay it with: mmwave-admin diff {path} --replay"
                    ),
                    Err(e) => {
                        eprintln!("fuzz: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            ExitCode::FAILURE
        }
    }
}
