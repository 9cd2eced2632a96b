//! CI soak smoke: a short chaos campaign that must survive everything the
//! supervisor claims to survive.
//!
//! ```text
//! cargo run --release -p mmwave-bench --bin soak -- [--journal <path>]
//! ```
//!
//! The soak plays a small (scenario × strategy × seed × fault) grid under
//! injected chaos and asserts the supervisor's guarantees end to end:
//!
//! 1. **Kill + resume** — phase 1 runs only a prefix of the grid (the
//!    process "dies" mid-campaign), a torn half-line is appended to the
//!    journal (a crash mid-write), and phase 2 reruns the *full* grid
//!    against the same journal. The union must cover every cell exactly
//!    once: zero lost, zero duplicated, phase-1 cells resumed not rerun.
//! 2. **Retry-with-backoff** — a pre-run hook panics selected cells on
//!    their first attempt only; supervision must retry them to completion.
//! 3. **Deterministic timeout** — one cell carries a tiny tick budget and
//!    must fail as `timeout`, and [`replay_cell`] must reproduce exactly
//!    that classification from the journal line alone.
//! 4. **Terminal failure** — one cell panics on every attempt and must
//!    land in the journal as a terminal `panic` after `max_attempts`.
//! 5. **Bit-identical replay** — a completed cell replayed from its
//!    journal line must reproduce its result digest bit for bit.
//! 6. **Telemetry trace** — a small campaign runs with telemetry capture
//!    into a JSONL trace; every line must be strict JSON and each cell's
//!    slot timestamps must be monotone. (With the `telemetry` feature off
//!    the instrumentation doesn't exist, so the trace is validated but
//!    allowed to be empty.)
//!
//! Exit code 0 when every check passes, 1 otherwise. The journal and the
//! trace are left on disk for CI to upload as artifacts.

use mmwave_sim::campaign::{
    backoff_delay, load_journal, replay_cell, run_campaign, CampaignConfig, FailureKind, Job,
    TelemetrySpec,
};
use mmwave_sim::faults::FaultSchedule;
use mmwave_sim::spec::{ScenarioSpec, WorldSpec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// The cell that panics on every attempt (a permanently-broken run).
const ALWAYS_PANIC_SEED: u64 = 7300;
/// Cells that panic on their first attempt only (transient chaos).
const FLAKY_SEEDS: &[u64] = &[7001, 7100];
/// The cell supervised under a tiny tick budget (deterministic timeout).
const TIMEOUT_SEED: u64 = 7200;

/// A replayable cell of `world` under `fault`.
fn job(world: WorldSpec, strategy: &str, seed: u64, fault: &FaultSchedule) -> Job {
    let spec = ScenarioSpec {
        fault: fault.clone(),
        ..ScenarioSpec::single(world, strategy, seed)
    };
    Job::from_spec(&spec).expect("registry job")
}

fn build_jobs() -> Vec<Job> {
    let loss = FaultSchedule::parse_spec("seed=5;loss=0.3@0.2..0.8").expect("valid spec");
    let mut jobs = Vec::new();
    // Plain grid: two strategies × three seeds on the mobile scenario.
    for strategy in ["mmreliable", "single-beam-reactive"] {
        for seed in 7000..7003u64 {
            jobs.push(job(
                WorldSpec::MobileBlockage,
                strategy,
                seed,
                &FaultSchedule::none(),
            ));
        }
    }
    // Faulted cells: probe loss mid-run.
    for seed in [7100u64, 7101] {
        jobs.push(job(WorldSpec::MobileBlockage, "mmreliable", seed, &loss));
    }
    // The deterministic timeout: three maintenance ticks, then cancelled.
    jobs.push(
        job(
            WorldSpec::StaticWalker,
            "mmreliable",
            TIMEOUT_SEED,
            &FaultSchedule::none(),
        )
        .with_tick_budget(3),
    );
    // The permanently-broken cell.
    jobs.push(job(
        WorldSpec::StaticWalker,
        "single-beam-reactive",
        ALWAYS_PANIC_SEED,
        &FaultSchedule::none(),
    ));
    jobs
}

fn chaos_config(journal: &Path) -> CampaignConfig {
    CampaignConfig {
        threads: 4,
        run_deadline: Some(Duration::from_secs(120)),
        max_attempts: 3,
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(40),
        journal: Some(journal.to_path_buf()),
        pre_run_hook: Some(Arc::new(|key, attempt| {
            if key.seed == ALWAYS_PANIC_SEED {
                panic!("soak chaos: permanent failure injected for {key}");
            }
            if FLAKY_SEEDS.contains(&key.seed) && attempt == 1 {
                panic!("soak chaos: transient failure injected for {key}");
            }
        })),
        ..CampaignConfig::default()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let journal: PathBuf = args
        .iter()
        .position(|a| a == "--journal")
        .and_then(|i| args.get(i + 1))
        .map_or_else(
            || PathBuf::from("results/soak-journal.jsonl"),
            PathBuf::from,
        );
    let _ = std::fs::remove_file(&journal);
    let metrics: PathBuf = args
        .iter()
        .position(|a| a == "--metrics")
        .and_then(|i| args.get(i + 1))
        .map_or_else(
            || journal.with_file_name("soak-metrics.jsonl"),
            PathBuf::from,
        );
    let _ = std::fs::remove_file(&metrics);

    let jobs = build_jobs();
    let cfg = chaos_config(&journal);
    let mut failed_checks: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: &str| {
        println!("[{}] {what}", if ok { "ok" } else { "FAIL" });
        if !ok {
            failed_checks.push(what.to_string());
        }
    };

    // Phase 1: the campaign is "killed" after a prefix of the grid — run
    // only the first five cells, then tear the journal's trailing line.
    let phase1_cells = 5usize;
    let report1 = run_campaign(&jobs[..phase1_cells], &cfg).expect("phase 1 campaign");
    check(
        report1.outcomes.len() == phase1_cells,
        "phase 1 reported every submitted cell",
    );
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .expect("journal exists after phase 1");
        // A torn half-line, as a crash mid-write would leave behind.
        f.write_all(b"{\"scenario\":\"torn-partial-en")
            .expect("append");
    }

    // Phase 2: resume the full grid against the same journal.
    let report2 = run_campaign(&jobs, &cfg).expect("phase 2 campaign");
    check(
        report2.resumed_count() == phase1_cells,
        "phase 2 resumed exactly the phase-1 cells (no rerun)",
    );

    // Journal invariants: every cell exactly once, no torn residue.
    let entries = load_journal(&journal).expect("readable journal");
    check(
        entries.len() == jobs.len(),
        "journal covers every cell (zero lost)",
    );
    let mut ids: Vec<String> = entries.iter().map(|e| e.key().id()).collect();
    ids.sort();
    ids.dedup();
    check(
        ids.len() == entries.len(),
        "journal has no duplicated cells",
    );
    let mut want: Vec<String> = jobs.iter().map(|j| j.key.id()).collect();
    want.sort();
    check(ids == want, "journal keys match the submitted grid exactly");

    // Failure classification: the timeout cell timed out, the broken cell
    // is a terminal panic after max_attempts, everything else completed.
    for e in &entries {
        match e.seed {
            TIMEOUT_SEED => {
                check(
                    e.status == "timeout",
                    "tick-budget cell classified as timeout",
                );
            }
            ALWAYS_PANIC_SEED => {
                check(e.status == "panic", "broken cell classified as panic");
                check(
                    e.attempts == cfg.max_attempts,
                    "broken cell consumed every retry",
                );
            }
            seed => {
                check(
                    e.status == "ok",
                    &format!("cell seed {seed} completed ok (status {})", e.status),
                );
                if FLAKY_SEEDS.contains(&seed) {
                    check(
                        e.attempts == 2,
                        "transiently-flaky cell recovered on its retry",
                    );
                }
            }
        }
    }

    // Replay: a completed cell reproduces its digest bit for bit; the
    // timeout cell reproduces its classification from the journal alone.
    if let Some(ok_entry) = entries.iter().find(|e| e.status == "ok") {
        match replay_cell(ok_entry) {
            Ok((_, digest)) => check(
                digest == ok_entry.digest,
                "replayed ok cell is bit-identical to the journal digest",
            ),
            Err(f) => check(false, &format!("ok cell replay failed: {}", f.message)),
        }
    }
    if let Some(to_entry) = entries.iter().find(|e| e.seed == TIMEOUT_SEED) {
        match replay_cell(to_entry) {
            Err(f) => check(
                f.kind == FailureKind::Timeout,
                "replayed timeout cell reproduces the timeout",
            ),
            Ok(_) => check(false, "replayed timeout cell reproduces the timeout"),
        }
    }

    // Phase 3: telemetry capture. A clean two-cell campaign writes a
    // cell-tagged JSONL trace (plus a Chrome trace); validate the trace's
    // structural invariants line by line.
    let trace_path = journal.with_file_name("soak-trace.jsonl");
    let chrome_path = journal.with_file_name("soak-trace.chrome.json");
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&chrome_path);
    let trace_jobs: Vec<Job> = (7400..7402u64)
        .map(|seed| {
            job(
                WorldSpec::MobileBlockage,
                "mmreliable",
                seed,
                &FaultSchedule::none(),
            )
        })
        .collect();
    let trace_cfg = CampaignConfig {
        threads: 2,
        telemetry: Some(TelemetrySpec {
            trace: Some(trace_path.clone()),
            chrome_trace: Some(chrome_path.clone()),
            decimation: 16,
        }),
        metrics: Some(metrics.clone()),
        ..CampaignConfig::default()
    };
    let trace_report = run_campaign(&trace_jobs, &trace_cfg).expect("telemetry campaign");
    check(
        trace_report.failures().is_empty(),
        "telemetry campaign completed cleanly",
    );
    let trace_text = std::fs::read_to_string(&trace_path).unwrap_or_default();
    let mut trace_ok = true;
    let mut slot_lines = 0usize;
    let mut last_slot_t: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for line in trace_text.lines().filter(|l| !l.trim().is_empty()) {
        if let Err(e) = mmwave_telemetry::validate_json_line(line) {
            eprintln!("soak: invalid trace line ({e}): {line}");
            trace_ok = false;
            continue;
        }
        let Some(cell) = mmwave_telemetry::field_str(line, "cell") else {
            eprintln!("soak: trace line without cell tag: {line}");
            trace_ok = false;
            continue;
        };
        if mmwave_telemetry::field_str(line, "kind").as_deref() == Some("slot") {
            let t = mmwave_telemetry::field_f64(line, "t_s").unwrap_or(f64::NAN);
            if let Some(prev) = last_slot_t.get(&cell) {
                if t < *prev || t.is_nan() {
                    eprintln!("soak: slot time regressed in {cell}: {prev} -> {t}");
                    trace_ok = false;
                }
            }
            last_slot_t.insert(cell, t);
            slot_lines += 1;
        }
    }
    check(
        trace_ok,
        "every trace line is strict JSON with monotone per-cell slot times",
    );
    if cfg!(feature = "telemetry") {
        check(slot_lines > 0, "trace captured per-slot records");
        check(
            last_slot_t.len() == trace_jobs.len(),
            "every telemetry cell left a trace",
        );
        check(
            trace_report.latency().tick().count > 0,
            "campaign-merged latency histograms accumulated",
        );
        check(
            std::fs::read_to_string(&chrome_path)
                .map(|t| t.contains("\"traceEvents\""))
                .unwrap_or(false),
            "chrome trace written",
        );
    } else {
        println!("[skip] telemetry feature off: trace content checks skipped");
    }

    // Metrics snapshot: the campaign capture layer runs regardless of the
    // telemetry feature; every line must be strict JSON and the snapshot
    // must re-absorb into a registry losslessly.
    let metrics_text = std::fs::read_to_string(&metrics).unwrap_or_default();
    let mut reabsorbed = mmwave_telemetry::MetricsRegistry::new();
    let mut metrics_ok = !metrics_text.trim().is_empty();
    for line in metrics_text.lines().filter(|l| !l.trim().is_empty()) {
        if mmwave_telemetry::validate_json_line(line).is_err()
            || reabsorbed.absorb_line(line).is_err()
        {
            eprintln!("soak: bad metrics line: {line}");
            metrics_ok = false;
        }
    }
    check(
        metrics_ok && !reabsorbed.is_empty(),
        "metrics snapshot is strict JSON and re-absorbs into a registry",
    );
    check(
        reabsorbed
            .find_counter("campaign", "completed")
            .map(|id| reabsorbed.counter_value(id))
            == Some(trace_jobs.len() as u64),
        "metrics snapshot counts every telemetry cell as completed",
    );

    // Backoff determinism: the same (cell, attempt) always yields the same
    // delay.
    let probe = &jobs[0].key;
    check(
        backoff_delay(&cfg, probe, 1) == backoff_delay(&cfg, probe, 1)
            && backoff_delay(&cfg, probe, 2) == backoff_delay(&cfg, probe, 2),
        "backoff delays are deterministic",
    );

    println!(
        "soak: {} cells, {} resumed, {} checks failed; journal at {}, trace at {}",
        jobs.len(),
        report2.resumed_count(),
        failed_checks.len(),
        journal.display(),
        trace_path.display()
    );
    if failed_checks.is_empty() {
        ExitCode::SUCCESS
    } else {
        for c in &failed_checks {
            eprintln!("soak FAIL: {c}");
        }
        ExitCode::FAILURE
    }
}
