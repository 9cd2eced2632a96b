//! The resilient campaign supervisor: watchdogged sweeps with
//! checkpoint/resume, bounded retry, and deterministic failure replay.
//!
//! A *campaign* is a set of (scenario, strategy, seed, fault-schedule)
//! cells — the cross product behind a paper figure or an overnight chaos
//! soak. [`run_campaign`] plays the cells on a bounded worker pool and
//! keeps the sweep alive through everything the runs can throw at it:
//!
//! - **Watchdog deadlines** — a dedicated watchdog thread polls every
//!   in-flight run against its wall-clock deadline and flips the run's
//!   [`CancelToken`]; the simulator's cooperative checkpoints unwind with
//!   [`CancelUnwind`], which the supervisor classifies as a
//!   [`FailureKind::Timeout`] rather than a crash. Tests and replays use
//!   deterministic *tick budgets* instead of wall clocks, so a recorded
//!   timeout reproduces at exactly the same simulated instant.
//! - **Failure classification + bounded retry** — a run that panics or
//!   times out is retried up to [`CampaignConfig::max_attempts`] times
//!   with exponential backoff and deterministic jitter (see
//!   [`backoff_delay`]); a run that fails *validation* (bad fault spec,
//!   structurally-garbage result) is terminal immediately, since it would
//!   fail identically on every retry.
//! - **Crash-consistent journal** — every terminal outcome appends one
//!   JSONL line through [`LineFile`] (atomically: full rewrite to a temp
//!   file + rename, [`write_lines_atomic`]) with the cell key, status,
//!   attempts, and a 64-bit result digest. A campaign pointed at an
//!   existing journal *resumes*: journaled cells are skipped and the old
//!   lines keep their file order, so an interrupted overnight sweep
//!   completes without rerunning finished seeds and without duplicating
//!   any cell.
//! - **Telemetry capture** — with a [`TelemetrySpec`] configured, every
//!   cell runs under a ring-buffered tracer (see `mmwave-telemetry`);
//!   completed and terminally-failed cells drain into a cell-tagged JSONL
//!   trace (a [`LineFile`] like the journal), per-stage latency
//!   histograms merge campaign-wide onto the report, and an optional
//!   Chrome-trace-format file renders the whole sweep in Perfetto.
//!
//! Cells run in submission order. Every failed cell carries its full
//! repro tuple; `mmwave-admin diff <journal> --replay` (in `mmwave-bench`)
//! feeds each journal line to [`replay_line`], which re-runs exactly that
//! cell (or fleet member, or fleet) single-threaded and checks the digest.
//! [`crate::runner::run_many`], the sweep entry of the figure and ablation
//! binaries, is a campaign of [`closure_jobs`] cells.
//!
//! Determinism contract: a zero-fault cell's result is bit-identical to a
//! serial `scenario.simulator(seed).run_with_warmup(..)` of the same
//! scenario and seed, independent of worker count — each cell's simulator
//! is seeded from its key alone, and the supervisor machinery (tokens,
//! watchdog, journal) never perturbs a run that completes.

use crate::faults::FaultSchedule;
use crate::fleet::{parse_fleet_scenario, run_fleet, FleetConfig, FleetReport, FleetScenarioRef};
use crate::impairments::ImpairmentConfig;
use crate::metrics::RunResult;
use crate::scenario::Scenario;
use crate::simulator::SimFrontEnd;
use crate::spec::{is_registry_name, parse_mix_fields, ScenarioSpec, WorldSpec};
use mmreliable::cancel::{is_cancel_unwind, CancelToken, CancelUnwind};
use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmwave_baselines::beamspy::{BeamSpy, BeamSpyConfig};
use mmwave_baselines::nr_periodic::{NrPeriodic, NrPeriodicConfig};
use mmwave_baselines::single_reactive::{ReactiveConfig, SingleBeamReactive};
use mmwave_baselines::strategy::{BeamStrategy, MmReliableStrategy};
use mmwave_baselines::widebeam::{WideBeamConfig, WideBeamStrategy};
use mmwave_telemetry::{
    field_f64, field_raw, field_str, field_u64, json_escape, LatencyHist, RingBufferSink,
    RunLatency, TraceEvent, Tracer, STAGE_COUNT,
};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Cell identity
// ---------------------------------------------------------------------------

/// The full repro tuple of one campaign cell. Two cells with equal keys are
/// the same experiment: the key alone (plus the registry) is enough to
/// rebuild and re-run the cell bit-identically.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Scenario registry name (see [`build_scenario`]) or a free-form label
    /// for closure-built jobs.
    pub scenario: String,
    /// Strategy registry name (see [`build_strategy`]) or a free-form
    /// label.
    pub strategy: String,
    /// Simulator seed.
    pub seed: u64,
    /// Canonical fault-schedule spec ([`FaultSchedule::spec_string`]).
    pub fault_spec: String,
    /// Canonical hardware-impairment spec
    /// ([`ImpairmentConfig::spec_string`]); `"none"` for a clean front end.
    pub impairment_spec: String,
}

impl CellKey {
    /// Canonical one-line identity, used for journal deduplication. Cells
    /// with a clean front end keep the historical four-segment form so old
    /// journals (and pinned CI cell ids) still match; an impairment spec
    /// adds a fifth segment. A legacy journal line with an empty impairment
    /// field parses as `none` ([`JournalEntry::parse`]), so it normalizes to
    /// the four-segment form and a pre-impairment journal diffs cleanly
    /// against a modern re-run of the same grid.
    pub fn id(&self) -> String {
        if self.impairment_spec == "none" {
            format!(
                "{}//{}//{}//{}",
                self.scenario, self.strategy, self.seed, self.fault_spec
            )
        } else {
            format!(
                "{}//{}//{}//{}//{}",
                self.scenario, self.strategy, self.seed, self.fault_spec, self.impairment_spec
            )
        }
    }
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} × {} (seed {}, faults {}",
            self.scenario, self.strategy, self.seed, self.fault_spec
        )?;
        if self.impairment_spec != "none" {
            write!(f, ", impairments {}", self.impairment_spec)?;
        }
        write!(f, ")")
    }
}

// ---------------------------------------------------------------------------
// Registry: named scenarios and strategies (the replay vocabulary)
// ---------------------------------------------------------------------------

/// Strategy names [`build_strategy`] understands.
pub const STRATEGY_NAMES: &[&str] = &[
    "mmreliable",
    "single-beam-reactive",
    "nr-periodic",
    "wide-beam",
    "beam-spy",
];

/// Builds a scenario by world id — a registry name
/// ([`crate::spec::registry_names`]) or a `spec:` form: a thin delegate to
/// [`WorldSpec::parse`] and [`WorldSpec::build`]. `seed` parameterizes
/// the seeded builders (blockage draw); deterministic builders ignore it.
pub fn build_scenario(name: &str, seed: u64) -> Option<Scenario> {
    WorldSpec::parse(name).ok()?.build(seed).ok()
}

/// Builds a fresh strategy instance by registry name.
pub fn build_strategy(name: &str) -> Option<Box<dyn BeamStrategy + Send>> {
    Some(match name {
        "mmreliable" => Box::new(MmReliableStrategy::new(MmReliableController::new(
            MmReliableConfig::paper_default(),
        ))),
        "single-beam-reactive" => Box::new(SingleBeamReactive::new(ReactiveConfig::default())),
        "nr-periodic" => Box::new(NrPeriodic::new(NrPeriodicConfig::default())),
        "wide-beam" => Box::new(WideBeamStrategy::new(WideBeamConfig::default())),
        "beam-spy" => Box::new(BeamSpy::new(BeamSpyConfig::default())),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// What a job's builder produces: a scenario (with its fault schedule) and
/// a fresh strategy instance.
pub struct JobSetup {
    /// The fully-specified experiment.
    pub scenario: Scenario,
    /// The strategy to play it against.
    pub strategy: Box<dyn BeamStrategy + Send>,
}

type JobBuilder = Arc<dyn Fn(&CellKey) -> Result<JobSetup, String> + Send + Sync>;

/// One schedulable campaign cell.
pub struct Job {
    /// The cell's repro tuple.
    pub key: CellKey,
    /// Deterministic per-run tick budget. The run cancels cooperatively
    /// after this many maintenance ticks — the reproducible stand-in for a
    /// wall-clock timeout.
    pub tick_budget: Option<u64>,
    builder: JobBuilder,
}

impl Job {
    /// A replayable job: the spec's canonical id is the cell key, and
    /// [`replay_cell`] parses a journal line's key back into the same
    /// spec. Fails fast on an invalid spec (unknown world or strategy,
    /// invalid fault schedule or impairment configuration). Fleet specs
    /// are not campaign cells — run those through
    /// [`ScenarioSpec::fleet_config`].
    pub fn from_spec(spec: &ScenarioSpec) -> Result<Self, String> {
        spec.validate().map_err(|e| e.to_string())?;
        if spec.fleet.is_some() {
            return Err(
                "fleet specs run through run_fleet, not the campaign supervisor".to_string(),
            );
        }
        let spec = spec.clone();
        Ok(Self {
            key: spec.cell_key(),
            tick_budget: None,
            builder: Arc::new(move |_: &CellKey| spec_setup(&spec)),
        })
    }

    /// A custom job built from an arbitrary setup closure. The key is the
    /// cell's identity in the journal; like [`closure_jobs`] cells, custom
    /// cells are not replayable from names alone.
    pub fn custom(
        key: CellKey,
        builder: impl Fn(&CellKey) -> Result<JobSetup, String> + Send + Sync + 'static,
    ) -> Self {
        Self {
            key,
            tick_budget: None,
            builder: Arc::new(builder),
        }
    }

    /// Sets the deterministic tick budget.
    pub fn with_tick_budget(mut self, budget: u64) -> Self {
        self.tick_budget = Some(budget);
        self
    }
}

/// A spec's scenario (with its fault and impairment layers) and a fresh
/// strategy instance.
fn spec_setup(spec: &ScenarioSpec) -> Result<JobSetup, String> {
    let scenario = spec.to_scenario().map_err(|e| e.to_string())?;
    let strategy = build_strategy(&spec.strategy)
        .ok_or_else(|| format!("unknown strategy {:?}", spec.strategy))?;
    Ok(JobSetup { scenario, strategy })
}

/// Closure-built jobs for sweeps over configurations the registry does not
/// name (figures, ablation studies): one job per seed
/// (`base_seed + run_idx`), the cells of [`crate::runner::run_many`]. The
/// labels identify the cells in the journal; such cells are not replayable
/// from names alone.
pub fn closure_jobs<S, F>(
    n_runs: usize,
    base_seed: u64,
    scenario_label: &str,
    strategy_label: &str,
    scenario_fn: S,
    strategy_fn: F,
) -> Vec<Job>
where
    S: Fn(u64) -> Scenario + Send + Sync + 'static,
    F: Fn() -> Box<dyn BeamStrategy + Send> + Send + Sync + 'static,
{
    let scenario_fn = Arc::new(scenario_fn);
    let strategy_fn = Arc::new(strategy_fn);
    (0..n_runs)
        .map(|i| {
            let seed = base_seed.wrapping_add(i as u64);
            let sf = Arc::clone(&scenario_fn);
            let tf = Arc::clone(&strategy_fn);
            Job {
                key: CellKey {
                    scenario: scenario_label.to_string(),
                    strategy: strategy_label.to_string(),
                    seed,
                    fault_spec: "none".to_string(),
                    impairment_spec: "none".to_string(),
                },
                tick_budget: None,
                builder: Arc::new(move |key: &CellKey| {
                    Ok(JobSetup {
                        scenario: sf(key.seed),
                        strategy: tf(),
                    })
                }),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Hook invoked at the start of every attempt (inside the supervised
/// unwind boundary) — chaos tests inject panics and hangs here.
pub type PreRunHook = Arc<dyn Fn(&CellKey, u32) + Send + Sync>;

/// The observability feature set this binary was compiled with, as a
/// canonical comma-joined string. Recorded on every journal entry so a
/// replay built with a different feature set can note that
/// counters/latency differ while the simulation payload stays
/// bit-identical (neither is part of the digest).
pub fn compiled_features() -> String {
    let mut f: Vec<&str> = Vec::new();
    if cfg!(feature = "perf-counters") {
        f.push("perf-counters");
    }
    if cfg!(feature = "telemetry") {
        f.push("telemetry");
    }
    f.join(",")
}

/// Telemetry capture policy for a campaign. Requires the `telemetry`
/// feature to produce data: without it the tracers are installed but no
/// instrumentation call sites exist, so traces come back empty.
#[derive(Clone, Debug)]
pub struct TelemetrySpec {
    /// Cell-tagged JSONL trace path (one event per line, each carrying its
    /// cell id). Rewritten from scratch each campaign through a
    /// [`LineFile`], like the journal; resumed cells re-run nothing and so
    /// contribute no trace.
    pub trace: Option<PathBuf>,
    /// Chrome-trace-format (Perfetto `chrome://tracing`) output path, one
    /// process per cell, written once after the campaign completes.
    pub chrome_trace: Option<PathBuf>,
    /// Keep every `decimation`-th per-slot sample (≥ 1).
    pub decimation: u64,
}

/// Per-cell trace event ring capacity; the oldest events beyond it are
/// dropped (and counted, [`CellTrace::dropped`]).
const RING_CAPACITY: usize = 1 << 16;

impl Default for TelemetrySpec {
    fn default() -> Self {
        Self {
            trace: None,
            chrome_trace: None,
            decimation: 8,
        }
    }
}

/// Supervisor policy for one campaign.
#[derive(Clone)]
pub struct CampaignConfig {
    /// Worker threads; `0` means every available core.
    pub threads: usize,
    /// Per-run wall-clock deadline enforced by the watchdog thread.
    /// `None` disables wall-clock supervision (tick budgets still apply).
    pub run_deadline: Option<Duration>,
    /// Total attempts per cell (1 = no retries) for transient failures.
    pub max_attempts: u32,
    /// Backoff before retry #1, doubling per further attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Journal path. `Some` enables crash-consistent journaling *and*
    /// resume-from-journal.
    pub journal: Option<PathBuf>,
    /// Chaos-injection hook (see [`PreRunHook`]).
    pub pre_run_hook: Option<PreRunHook>,
    /// Per-cell telemetry capture (see [`TelemetrySpec`]). `None` runs
    /// every cell with a disabled tracer — zero overhead.
    pub telemetry: Option<TelemetrySpec>,
    /// Metrics-registry snapshot (JSONL) output path: per-cell attempts
    /// and reliability, campaign-level completion counters, and the
    /// merged per-stage latency histograms. `None` skips the capture.
    pub metrics: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            run_deadline: None,
            max_attempts: 3,
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_secs(1),
            journal: None,
            pre_run_hook: None,
            telemetry: None,
            metrics: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

/// Why a cell failed terminally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The run panicked (a crash — retryable, in case it was environmental).
    Panic,
    /// The run was cancelled at a cooperative checkpoint (wall-clock
    /// deadline or tick budget — retryable).
    Timeout,
    /// The cell is structurally invalid (bad fault spec, unknown name,
    /// garbage result) — deterministic, never retried.
    Validation,
}

impl FailureKind {
    /// Whether the supervisor retries this failure class.
    pub fn retryable(self) -> bool {
        !matches!(self, FailureKind::Validation)
    }

    /// Journal status string.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
            FailureKind::Validation => "validation",
        }
    }
}

/// A terminal failure with its classification and last error message.
#[derive(Clone, Debug)]
pub struct CampaignFailure {
    /// Failure class.
    pub kind: FailureKind,
    /// Message from the final attempt.
    pub message: String,
}

/// How one cell ended.
pub enum CellStatus {
    /// The run completed (and validated) this campaign.
    Completed {
        /// The full run record.
        result: Box<RunResult>,
        /// [`RunResult::digest`] of the record.
        digest: u64,
    },
    /// The cell was found in the journal and skipped.
    Resumed {
        /// The journal entry the cell was resumed from.
        entry: JournalEntry,
    },
    /// The cell failed terminally (after retries, if retryable).
    Failed {
        /// The classified failure.
        failure: CampaignFailure,
    },
}

/// One cell's final report line.
pub struct CellOutcome {
    /// The cell's repro tuple.
    pub key: CellKey,
    /// Attempts consumed (0 for resumed cells).
    pub attempts: u32,
    /// Terminal status.
    pub status: CellStatus,
}

/// The campaign's full report, one outcome per submitted job, in
/// submission order.
pub struct CampaignReport {
    /// Per-cell outcomes, indexed like the submitted job list.
    pub outcomes: Vec<CellOutcome>,
    /// Campaign-merged per-stage latency histograms, accumulated across
    /// every cell that ran with a tracer. All-empty unless the `telemetry`
    /// feature is on and [`CampaignConfig::telemetry`] was set.
    pub hists: [LatencyHist; STAGE_COUNT],
}

impl CampaignReport {
    /// Percentile digests of the campaign-merged latency histograms.
    pub fn latency(&self) -> RunLatency {
        RunLatency {
            stages: std::array::from_fn(|i| self.hists[i].summary()),
        }
    }

    /// Terminal failures, with their keys.
    pub fn failures(&self) -> Vec<(&CellKey, &CampaignFailure)> {
        self.outcomes
            .iter()
            .filter_map(|o| match &o.status {
                CellStatus::Failed { failure } => Some((&o.key, failure)),
                _ => None,
            })
            .collect()
    }

    /// Number of cells skipped because the journal already had them.
    pub fn resumed_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, CellStatus::Resumed { .. }))
            .count()
    }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// One journal line: a cell's terminal outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    /// The cell this line records.
    pub key: CellKey,
    /// `"ok"`, `"panic"`, `"timeout"`, or `"validation"`.
    pub status: String,
    /// Attempts consumed.
    pub attempts: u32,
    /// Result digest (`0` for failures).
    pub digest: u64,
    /// Tick budget the run executed under (`None` = unlimited) — needed to
    /// replay a recorded timeout deterministically.
    pub tick_budget: Option<u64>,
    /// Headline reliability of an ok run (`0` for failures).
    pub reliability: f64,
    /// Final error message for failures (empty for ok).
    pub message: String,
    /// Observability features the recording binary was compiled with
    /// ([`compiled_features`]; empty for entries from older journals).
    pub features: String,
}

impl JournalEntry {
    /// The line of a cell that ended with `outcome`: `Ok((digest,
    /// reliability))` for a completed run, `Err(failure)` for a terminal
    /// failure (digest and reliability `0`). One attempt, no tick budget
    /// and this binary's [`compiled_features`]; a supervised cell sets
    /// `attempts` and `tick_budget` itself.
    pub fn new(key: CellKey, outcome: Result<(u64, f64), &CampaignFailure>) -> Self {
        let (status, digest, reliability, message) = match outcome {
            Ok((digest, reliability)) => ("ok", digest, reliability, String::new()),
            Err(f) => (f.kind.as_str(), 0, 0.0, f.message.clone()),
        };
        Self {
            key,
            status: status.to_string(),
            attempts: 1,
            digest,
            tick_budget: None,
            reliability,
            message,
            features: compiled_features(),
        }
    }

    /// Serializes to one JSONL line (no trailing newline). A non-finite
    /// reliability is written as `0`: JSON has no NaN, and a `null` would
    /// not parse back, so a resume would stop at this line.
    pub fn to_json(&self) -> String {
        let reliability = if self.reliability.is_finite() {
            self.reliability
        } else {
            0.0
        };
        format!(
            r#"{{"scenario":"{}","strategy":"{}","seed":{},"fault":"{}","status":"{}","attempts":{},"digest":"{:016x}","tick_budget":{},"reliability":{reliability},"message":"{}","features":"{}","impairment":"{}"}}"#,
            json_escape(&self.key.scenario),
            json_escape(&self.key.strategy),
            self.key.seed,
            json_escape(&self.key.fault_spec),
            json_escape(&self.status),
            self.attempts,
            self.digest,
            self.tick_budget
                .map_or_else(|| "null".to_string(), |b| b.to_string()),
            json_escape(&self.message),
            json_escape(&self.features),
            json_escape(&self.key.impairment_spec),
        )
    }

    /// Parses one journal line. `None` for malformed lines (a torn trailing
    /// write after a crash is expected and tolerated). An empty or absent
    /// impairment field (journals written before the impairment layer) and
    /// an empty fault field (fleet members journaled before fleet mixes)
    /// read as `"none"`, a clean front end.
    pub fn parse(line: &str) -> Option<Self> {
        let line = line.trim();
        if !(line.starts_with('{') && line.ends_with('}')) {
            return None;
        }
        let spec = |s: String| if s.is_empty() { "none".to_string() } else { s };
        Some(Self {
            key: CellKey {
                scenario: field_str(line, "scenario")?,
                strategy: field_str(line, "strategy")?,
                seed: field_u64(line, "seed")?,
                fault_spec: spec(field_str(line, "fault")?),
                impairment_spec: spec(field_str(line, "impairment").unwrap_or_default()),
            },
            status: field_str(line, "status")?,
            attempts: field_raw(line, "attempts")?.parse().ok()?,
            digest: u64::from_str_radix(&field_str(line, "digest")?, 16).ok()?,
            tick_budget: match field_raw(line, "tick_budget")? {
                "null" => None,
                n => Some(n.parse().ok()?),
            },
            reliability: field_f64(line, "reliability")?,
            message: field_str(line, "message")?,
            // Absent from journals written before the telemetry layer.
            features: field_str(line, "features").unwrap_or_default(),
        })
    }
}

/// Loads a journal, tolerating a missing file and a torn trailing line.
pub fn load_journal(path: &Path) -> Result<Vec<JournalEntry>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
    };
    let mut entries = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match JournalEntry::parse(line) {
            Some(e) => entries.push(e),
            // A torn line can only be the last thing written before a
            // crash; everything before it is intact.
            None => break,
        }
    }
    Ok(entries)
}

/// The crash-consistent JSONL writer behind every journal and the
/// campaign trace: it holds the file's whole lines and commits each
/// append with [`write_lines_atomic`], so the file on disk is always the
/// lines it opened over plus whole appends — a reader never observes a
/// torn line this writer produced.
pub struct LineFile {
    path: PathBuf,
    lines: Vec<String>,
}

impl LineFile {
    /// A file that starts empty: the first append replaces whatever
    /// `path` held.
    pub fn create(path: &Path) -> Self {
        Self {
            path: path.to_path_buf(),
            lines: Vec::new(),
        }
    }

    /// Opens the journal at `path` over the entries [`load_journal`]
    /// reads back, in file order, and returns them too. A torn tail is
    /// not among them, so the first append drops it.
    pub fn open_journal(path: &Path) -> Result<(Self, Vec<JournalEntry>), String> {
        let entries = load_journal(path)?;
        let file = Self {
            path: path.to_path_buf(),
            lines: entries.iter().map(JournalEntry::to_json).collect(),
        };
        Ok((file, entries))
    }

    /// Appends `lines` in one commit.
    pub fn append(&mut self, lines: impl IntoIterator<Item = String>) -> Result<(), String> {
        self.lines.extend(lines);
        write_lines_atomic(&self.path, &self.lines)
    }
}

/// Rewrites `lines` (plus trailing newline) to `<path>.tmp` and renames
/// over `path`: the file on disk is always a whole-line prefix of the
/// writer's state, never a torn entry. The workspace's one tmp + rename:
/// [`LineFile`] commits through it, and the one-shot artifacts (the
/// Chrome trace, the metrics snapshots) call it directly.
///
/// Public because it *is* the journal's commit protocol: the loom model
/// test (`tests/loom_journal.rs`, run under `RUSTFLAGS="--cfg loom"`)
/// drives this exact function from a writer thread while a concurrent
/// reader asserts that every observable file state is a whole-line prefix
/// of the writer's history — the crash-consistency argument, checked at
/// the concurrency seam rather than assumed.
pub fn write_lines_atomic(path: &Path, lines: &[String]) -> Result<(), String> {
    let tmp = path.with_extension("jsonl.tmp");
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    let mut body = lines.join("\n");
    if !body.is_empty() {
        body.push('\n');
    }
    std::fs::write(&tmp, body).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} into place: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The deterministic retry delay before attempt `attempt + 1` (i.e. after
/// `attempt` failed attempts, `attempt >= 1`): doubling per attempt,
/// capped, then jittered into `[0.5, 1.0]×` by a seeded draw that depends
/// only on the cell key and the attempt — so a replayed campaign backs off
/// identically, while different cells decorrelate.
pub fn backoff_delay(cfg: &CampaignConfig, key: &CellKey, attempt: u32) -> Duration {
    let exp = 2f64.powi(attempt.saturating_sub(1) as i32);
    let raw = cfg.backoff_base.as_secs_f64() * exp;
    let capped = raw.min(cfg.backoff_max.as_secs_f64());
    let mut rng = mmwave_dsp::rng::Rng64::seed(
        fnv1a(key.id().as_bytes()) ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    Duration::from_secs_f64(capped * rng.uniform_in(0.5, 1.0))
}

// ---------------------------------------------------------------------------
// The supervisor
// ---------------------------------------------------------------------------

/// Silences the default panic printout for [`CancelUnwind`] payloads —
/// cooperative cancellations are supervision, not crashes — chaining every
/// other panic to the previously-installed hook.
fn install_quiet_cancel_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CancelUnwind>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Telemetry drained from one cell's tracer after its run (or after the
/// final failed attempt — a crashed cell's trace shows the slots leading
/// up to the crash).
pub struct CellTrace {
    /// Buffered events, oldest first. The ring may have shed the earliest
    /// (see [`CellTrace::dropped`]).
    pub events: Vec<TraceEvent>,
    /// Raw per-stage latency histograms for campaign-level merging.
    pub hists: [LatencyHist; STAGE_COUNT],
    /// Events the ring discarded for capacity.
    pub dropped: u64,
}

impl CellTrace {
    fn drain_from(tracer: &Tracer) -> Self {
        Self {
            events: tracer.drain_events(),
            hists: tracer.histograms(),
            dropped: tracer.dropped(),
        }
    }
}

/// A fresh ring-buffered tracer per the campaign's telemetry spec
/// (disabled tracer when telemetry is unconfigured).
fn spec_tracer(spec: Option<&TelemetrySpec>) -> Option<Tracer> {
    spec.map(|s| Tracer::new(Box::new(RingBufferSink::new(RING_CAPACITY)), s.decimation))
}

/// The message of a caught panic payload; a cooperative cancellation reads
/// as [`CancelUnwind`]'s.
fn panic_msg(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if is_cancel_unwind(payload.as_ref()) {
        CancelUnwind.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Executes one cell to a terminal outcome (retrying transient failures),
/// journaling nothing — the caller owns the journal. The returned trace is
/// `Some` exactly when the campaign configured telemetry, drained from the
/// terminal attempt (successful or not).
#[allow(clippy::type_complexity)]
fn execute_cell(
    job: &Job,
    cfg: &CampaignConfig,
    inflight: &Mutex<HashMap<usize, (Option<Instant>, CancelToken)>>,
    job_idx: usize,
) -> (
    u32,
    Result<(RunResult, u64), CampaignFailure>,
    Option<CellTrace>,
) {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let token = match job.tick_budget {
            Some(b) => CancelToken::with_tick_budget(b),
            None => CancelToken::new(),
        };
        // A fresh tracer per attempt: a retried attempt never inherits the
        // failed one's events or histograms.
        let tracer = spec_tracer(cfg.telemetry.as_ref());
        let deadline = cfg.run_deadline.map(|d| Instant::now() + d);
        if deadline.is_some() {
            inflight
                .lock()
                .unwrap()
                .insert(job_idx, (deadline, token.clone()));
        }
        let run_token = token.clone();
        let run_tracer = tracer.clone();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(hook) = &cfg.pre_run_hook {
                hook(&job.key, attempts);
            }
            let setup = (job.builder)(&job.key)?;
            run_setup(setup, &job.key, run_token, run_tracer)
        }));
        inflight.lock().unwrap().remove(&job_idx);
        let trace = tracer.as_ref().map(CellTrace::drain_from);
        let failure = match outcome {
            Ok(Ok(result)) => {
                let digest = result.digest();
                return (attempts, Ok((result, digest)), trace);
            }
            Ok(Err(message)) => CampaignFailure {
                kind: FailureKind::Validation,
                message,
            },
            Err(payload) => {
                let kind = if is_cancel_unwind(payload.as_ref()) || token.is_cancelled() {
                    FailureKind::Timeout
                } else {
                    FailureKind::Panic
                };
                CampaignFailure {
                    kind,
                    message: panic_msg(payload),
                }
            }
        };
        if !failure.kind.retryable() || attempts >= cfg.max_attempts {
            return (attempts, Err(failure), trace);
        }
        std::thread::sleep(backoff_delay(cfg, &job.key, attempts));
    }
}

/// Builds the cell's front-end stack ([`Scenario::front_end`]) and plays
/// it. A clean cell's layers are inert, so it stays bit-identical to the
/// bare simulator ([`Scenario::simulator`]).
fn run_setup(
    setup: JobSetup,
    key: &CellKey,
    token: CancelToken,
    tracer: Option<Tracer>,
) -> Result<RunResult, String> {
    let JobSetup {
        scenario: sc,
        mut strategy,
    } = setup;
    let mut fe = sc.front_end(key.seed).map_err(|e| e.to_string())?;
    let sim = fe.sim_mut();
    sim.set_cancel_token(token);
    if let Some(t) = tracer {
        // The run loop clones the simulator's tracer into the strategy
        // stack, so this one installation covers every layer.
        sim.set_tracer(t);
    }
    let result = fe.run_with_warmup(
        strategy.as_mut(),
        sc.duration_s,
        sc.tick_period_s,
        sc.name,
        sc.warmup_s,
    );
    result.validate()?;
    Ok(result)
}

/// Replays one journaled cell single-threaded: rebuilds the cell from its
/// key ([`ScenarioSpec::parse_spec`]), runs it under the recorded tick
/// budget, and returns the outcome the run reproduces — `Ok((result, digest))` for a completed run,
/// `Err(failure)` carrying the reproduced failure class otherwise.
pub fn replay_cell(entry: &JournalEntry) -> Result<(RunResult, u64), CampaignFailure> {
    replay_cell_inner(entry, None).0
}

/// [`replay_cell`] with a ring-buffered tracer installed: returns the
/// drained per-slot trace alongside the replayed outcome — for a recorded
/// failure, the trace covers the slots leading up to the reproduced crash.
/// Like [`replay_cell`], it takes a link cell: a fleet member line is
/// routed first ([`ReplayTarget::Cell`]).
/// With the `telemetry` feature off the trace comes back empty (the
/// instrumentation call sites do not exist).
pub fn replay_cell_traced(
    entry: &JournalEntry,
    spec: &TelemetrySpec,
) -> (Result<(RunResult, u64), CampaignFailure>, CellTrace) {
    let (outcome, trace) = replay_cell_inner(entry, Some(spec));
    (outcome, trace.expect("tracer was installed"))
}

fn replay_cell_inner(
    entry: &JournalEntry,
    spec: Option<&TelemetrySpec>,
) -> (Result<(RunResult, u64), CampaignFailure>, Option<CellTrace>) {
    install_quiet_cancel_hook();
    let key = &entry.key;
    let token = match entry.tick_budget {
        Some(b) => CancelToken::with_tick_budget(b),
        None => CancelToken::new(),
    };
    let tracer = spec_tracer(spec);
    let run_tracer = tracer.clone();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let spec = ScenarioSpec::parse_spec(&key.id()).map_err(|e| e.to_string())?;
        run_setup(spec_setup(&spec)?, key, token.clone(), run_tracer)
    }));
    let trace = tracer.as_ref().map(CellTrace::drain_from);
    let result = match outcome {
        Ok(Ok(result)) => {
            let digest = result.digest();
            Ok((result, digest))
        }
        Ok(Err(message)) => Err(CampaignFailure {
            kind: FailureKind::Validation,
            message,
        }),
        Err(payload) => {
            let kind = if is_cancel_unwind(payload.as_ref()) || token.is_cancelled() {
                FailureKind::Timeout
            } else {
                FailureKind::Panic
            };
            Err(CampaignFailure {
                kind,
                message: panic_msg(payload),
            })
        }
    };
    (result, trace)
}

// ---------------------------------------------------------------------------
// Journal-line replay
// ---------------------------------------------------------------------------

/// How this binary rebuilds one journal line: the one place that tells a
/// link cell, a fleet member, a fleet aggregate, and a line it cannot
/// rebuild apart.
pub enum ReplayTarget {
    /// A link cell, or a fleet member rewritten as the single-link cell its
    /// in-fleet run is bit-identical to (base scenario, the member's
    /// derived seed and schedules).
    Cell(JournalEntry),
    /// A fleet aggregate, re-run on one worker and one shard.
    Fleet(FleetConfig),
    /// A line this binary cannot rebuild; the note says why.
    Skip(String),
}

impl ReplayTarget {
    /// Routes one journal line. Unknown plain scenario or strategy names
    /// are not skipped: they replay to the validation failure a campaign
    /// journals for them.
    pub fn of(entry: &JournalEntry) -> Self {
        let mut cell = entry.clone();
        let key = &entry.key;
        if key.scenario.starts_with("fleet:") {
            let Some(fleet) = parse_fleet_scenario(&key.scenario) else {
                return Self::Skip(format!(
                    "scenario {:?} uses a fleet form this binary does not recognize",
                    key.scenario
                ));
            };
            let (base, n_ues, member) = match fleet {
                FleetScenarioRef::Aggregate { base, n_ues } => (base, n_ues, None),
                FleetScenarioRef::PerUe { base, n_ues, ue } => (base, n_ues, Some(ue)),
            };
            if !is_registry_name(&base) {
                return Self::Skip(format!(
                    "fleet base scenario {base:?} is not in this binary's registry"
                ));
            }
            let Some(ue) = member else {
                return match parse_mix_fields(&key.fault_spec, &key.impairment_spec) {
                    Ok(mix) => Self::Fleet(FleetConfig {
                        threads: 1,
                        shards: 1,
                        mix,
                        ..FleetConfig::new(&base, &key.strategy, n_ues, key.seed)
                    }),
                    Err(e) => Self::Skip(format!(
                        "fleet aggregate carries a mix this binary cannot parse ({})",
                        e.reason()
                    )),
                };
            };
            if ue >= n_ues {
                return Self::Skip(format!(
                    "fleet member index ue{ue} is out of range for a {n_ues}-UE fleet"
                ));
            }
            cell.key.scenario = base;
        } else if key.scenario.starts_with("spec:") {
            if let Err(e) = WorldSpec::parse(&key.scenario) {
                return Self::Skip(format!(
                    "scenario {:?} uses a spec form this binary cannot parse ({})",
                    key.scenario,
                    e.reason()
                ));
            }
        }
        if let Err(e) = FaultSchedule::parse_spec(&key.fault_spec) {
            return Self::Skip(format!(
                "fault spec {:?} does not parse under this binary ({e})",
                key.fault_spec
            ));
        }
        if let Err(e) = ImpairmentConfig::parse_spec(&key.impairment_spec) {
            return Self::Skip(format!(
                "impairment spec {:?} does not parse under this binary ({e})",
                key.impairment_spec
            ));
        }
        Self::Cell(cell)
    }
}

/// Why this binary cannot rebuild a journal line, or `None` when it can:
/// an unknown fleet or spec form, a fleet base outside the registry, a
/// member index out of range, or an unparseable mix, fault spec or
/// impairment spec. Replay tooling notes the reason and skips the line;
/// such a line is never a divergence.
pub fn journal_note(entry: &JournalEntry) -> Option<String> {
    match ReplayTarget::of(entry) {
        ReplayTarget::Skip(note) => Some(note),
        _ => None,
    }
}

/// A journal line's fresh replay ([`replay_line`]).
// One short-lived value per replayed line, so the variant size spread
// costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum LineReplay {
    /// A link cell or fleet member, re-run single-threaded under the
    /// recorded tick budget.
    Cell(Result<(RunResult, u64), CampaignFailure>),
    /// A fleet aggregate, re-run on one worker and one shard.
    Fleet(Result<FleetReport, String>),
    /// Not replayed: the line's [`journal_note`].
    Skipped(String),
}

/// How a replay compares with the journal line it came from.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// An ok line reproduced its digest bit for bit, or a failed line its
    /// failure class; the detail names what was reproduced.
    Reproduced(String),
    /// An ok line completed again, with this different digest.
    Digest(u64),
    /// The replay ended differently from the line: how it ended.
    Status(String),
    /// Not replayed; the note says why.
    Skipped(String),
}

impl LineReplay {
    /// Compares the replay with `entry`, the line it replayed.
    pub fn verdict(&self, entry: &JournalEntry) -> Verdict {
        let (replayed, detail) = match self {
            LineReplay::Skipped(note) => return Verdict::Skipped(note.clone()),
            LineReplay::Cell(Ok((_, digest))) => (Ok(*digest), format!("digest {digest:016x}")),
            LineReplay::Fleet(Ok(report)) => (
                Ok(report.digest),
                format!(
                    "fleet of {}, digest {:016x}",
                    report.outcomes.len(),
                    report.digest
                ),
            ),
            LineReplay::Cell(Err(f)) => (Err(f.kind.as_str()), f.message.clone()),
            LineReplay::Fleet(Err(msg)) => (Err("error"), msg.clone()),
        };
        match replayed {
            Ok(digest) if entry.status != "ok" => {
                Verdict::Status(format!("ok, digest {digest:016x}"))
            }
            Ok(digest) if digest != entry.digest => Verdict::Digest(digest),
            Err(kind) if kind != entry.status => Verdict::Status(format!("{kind}: {detail}")),
            _ => Verdict::Reproduced(detail),
        }
    }
}

/// Replays one journal line, whatever its form: a link cell, a fleet
/// member, a fleet aggregate, or a skip with its [`journal_note`].
pub fn replay_line(entry: &JournalEntry) -> LineReplay {
    match ReplayTarget::of(entry) {
        ReplayTarget::Cell(cell) => LineReplay::Cell(replay_cell(&cell)),
        ReplayTarget::Fleet(cfg) => LineReplay::Fleet(run_fleet(&cfg)),
        ReplayTarget::Skip(note) => LineReplay::Skipped(note),
    }
}

/// Runs a campaign to completion (see the module docs for the guarantees).
///
/// Errors only on campaign-level problems — duplicate cell keys, an
/// unreadable journal; individual cell failures are reported per cell, not
/// as errors.
pub fn run_campaign(jobs: &[Job], cfg: &CampaignConfig) -> Result<CampaignReport, String> {
    install_quiet_cancel_hook();
    let mut seen = std::collections::HashSet::new();
    for job in jobs {
        if !seen.insert(job.key.id()) {
            return Err(format!("duplicate cell key: {}", job.key));
        }
    }
    let (journal, journaled) = match &cfg.journal {
        Some(path) => {
            let (file, entries) = LineFile::open_journal(path)?;
            let by_id: HashMap<String, JournalEntry> =
                entries.into_iter().map(|e| (e.key.id(), e)).collect();
            (Some(Mutex::new(file)), by_id)
        }
        None => (None, HashMap::new()),
    };

    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        cfg.threads
    };

    // Resolve resumed cells up front; queue the rest in submission order.
    let mut slots: Vec<Option<CellOutcome>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    let mut runnable: VecDeque<usize> = VecDeque::new();
    for (i, job) in jobs.iter().enumerate() {
        if let Some(entry) = journaled.get(&job.key.id()) {
            slots[i] = Some(CellOutcome {
                key: job.key.clone(),
                attempts: 0,
                status: CellStatus::Resumed {
                    entry: entry.clone(),
                },
            });
        } else {
            runnable.push_back(i);
        }
    }
    let queue: Mutex<VecDeque<usize>> = Mutex::new(runnable);
    let slots = Mutex::new(slots);
    let inflight: Mutex<HashMap<usize, (Option<Instant>, CancelToken)>> =
        Mutex::new(HashMap::new());
    let watchdog_stop = AtomicBool::new(false);
    let journal_err: Mutex<Option<String>> = Mutex::new(None);
    let spec = cfg.telemetry.as_ref();
    let trace_file: Option<Mutex<LineFile>> = spec
        .and_then(|s| s.trace.as_deref())
        .map(|path| Mutex::new(LineFile::create(path)));
    let chrome_wanted = spec.is_some_and(|s| s.chrome_trace.is_some());
    let chrome_cells: Mutex<Vec<(String, Vec<TraceEvent>)>> = Mutex::new(Vec::new());
    let merged: Mutex<[LatencyHist; STAGE_COUNT]> =
        Mutex::new(std::array::from_fn(|_| LatencyHist::new()));

    std::thread::scope(|s| {
        // The watchdog: cancels in-flight runs past their deadline.
        let watchdog = s.spawn(|| {
            while !watchdog_stop.load(Ordering::Acquire) {
                let now = Instant::now();
                for (deadline, token) in inflight.lock().unwrap().values() {
                    if let Some(d) = deadline {
                        if now >= *d {
                            token.cancel();
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| loop {
                    let idx = queue.lock().unwrap().pop_front();
                    let Some(idx) = idx else { break };
                    let job = &jobs[idx];
                    let (attempts, result, trace) = execute_cell(job, cfg, &inflight, idx);
                    if let Some(trace) = trace {
                        let mut hists = merged.lock().unwrap();
                        for (m, h) in hists.iter_mut().zip(trace.hists.iter()) {
                            m.merge(h);
                        }
                        drop(hists);
                        let cell_id = job.key.id();
                        if let Some(tf) = &trace_file {
                            let lines = trace.events.iter().map(|e| e.to_json(&cell_id));
                            if let Err(e) = tf.lock().unwrap().append(lines) {
                                journal_err.lock().unwrap().get_or_insert(e);
                            }
                        }
                        if chrome_wanted {
                            chrome_cells.lock().unwrap().push((cell_id, trace.events));
                        }
                    }
                    let mut entry = JournalEntry::new(
                        job.key.clone(),
                        result
                            .as_ref()
                            .map(|(r, digest)| (*digest, r.reliability())),
                    );
                    entry.attempts = attempts;
                    entry.tick_budget = job.tick_budget;
                    if let Some(j) = &journal {
                        if let Err(e) = j.lock().unwrap().append([entry.to_json()]) {
                            journal_err.lock().unwrap().get_or_insert(e);
                        }
                    }
                    let status = match result {
                        Ok((result, digest)) => CellStatus::Completed {
                            result: Box::new(result),
                            digest,
                        },
                        Err(failure) => CellStatus::Failed { failure },
                    };
                    slots.lock().unwrap()[idx] = Some(CellOutcome {
                        key: job.key.clone(),
                        attempts,
                        status,
                    });
                })
            })
            .collect();
        for w in workers {
            let _ = w.join();
        }
        watchdog_stop.store(true, Ordering::Release);
        let _ = watchdog.join();
    });

    if let Some(e) = journal_err.into_inner().unwrap() {
        return Err(e);
    }
    if let Some(path) = spec.and_then(|s| s.chrome_trace.as_deref()) {
        let mut cells = chrome_cells.into_inner().unwrap();
        // Completion order is thread-dependent; sort for a deterministic
        // file.
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        write_lines_atomic(path, &[mmwave_telemetry::chrome_trace_json(&cells)])?;
    }
    let outcomes: Vec<CellOutcome> = slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|o| o.expect("every cell resolved"))
        .collect();
    let hists = merged.into_inner().unwrap();
    // The campaign is the capture layer: the registry is populated here
    // unconditionally (no feature gate) from data the run already produced.
    if let Some(path) = &cfg.metrics {
        let mut reg = mmwave_telemetry::MetricsRegistry::new();
        let campaign = reg.resource("campaign");
        let (mut ok, mut resumed, mut failed) = (0u64, 0u64, 0u64);
        for o in &outcomes {
            let cell = reg.resource(&o.key.id());
            let attempts = reg.counter(cell, "attempts");
            reg.set_counter(attempts, u64::from(o.attempts));
            match &o.status {
                CellStatus::Completed { result, .. } => {
                    ok += 1;
                    let g = reg.gauge(cell, "reliability");
                    reg.set_gauge(g, result.reliability());
                }
                CellStatus::Resumed { entry } => {
                    resumed += 1;
                    let g = reg.gauge(cell, "reliability");
                    reg.set_gauge(g, entry.reliability);
                }
                CellStatus::Failed { .. } => failed += 1,
            }
        }
        for (counter, value) in [
            ("cells", outcomes.len() as u64),
            ("completed", ok),
            ("resumed", resumed),
            ("failed", failed),
        ] {
            let c = reg.counter(campaign, counter);
            reg.set_counter(c, value);
        }
        for (stage, hist) in mmwave_telemetry::Stage::ALL.iter().zip(hists.iter()) {
            let h = reg.histogram(campaign, stage.name());
            reg.merge_hist(h, hist);
        }
        write_lines_atomic(path, &reg.snapshot_jsonl())?;
    }
    Ok(CampaignReport { outcomes, hists })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    fn quick_jobs(n: usize, base_seed: u64) -> Vec<Job> {
        closure_jobs(
            n,
            base_seed,
            "mobile-blockage",
            "single-beam-reactive",
            scenario::mobile_blockage,
            || Box::new(SingleBeamReactive::new(ReactiveConfig::default())),
        )
    }

    #[test]
    fn zero_fault_campaign_matches_the_serial_loop_bit_for_bit() {
        // Shortened runs keep the debug-build mmReliable cells quick.
        fn short(seed: u64) -> Scenario {
            let mut sc = scenario::mobile_blockage(seed);
            sc.duration_s = 0.3;
            sc
        }
        for strategy in ["single-beam-reactive", "mmreliable"] {
            let jobs = closure_jobs(2, 400, "mobile-blockage-0.3s", strategy, short, move || {
                build_strategy(strategy).unwrap()
            });
            let cfg = CampaignConfig {
                threads: 2,
                ..CampaignConfig::default()
            };
            let report = run_campaign(&jobs, &cfg).unwrap();
            assert_eq!(report.outcomes.len(), 2);
            for (seed, o) in (400..).zip(&report.outcomes) {
                let CellStatus::Completed { result: c, .. } = &o.status else {
                    panic!("{strategy} seed {seed}: cell must complete");
                };
                let sc = short(seed);
                let mut s = build_strategy(strategy).unwrap();
                let serial = sc.simulator(seed).run_with_warmup(
                    s.as_mut(),
                    sc.duration_s,
                    sc.tick_period_s,
                    sc.name,
                    sc.warmup_s,
                );
                assert_eq!(
                    c.digest(),
                    serial.digest(),
                    "{strategy} seed {seed}: supervised run must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let digests = |threads| {
            let cfg = CampaignConfig {
                threads,
                ..CampaignConfig::default()
            };
            let report = run_campaign(&quick_jobs(4, 900), &cfg).unwrap();
            report
                .outcomes
                .iter()
                .map(|o| match &o.status {
                    CellStatus::Completed { digest, .. } => *digest,
                    other => panic!("expected completion, got {}", status_name(other)),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(digests(1), digests(4));
    }

    fn status_name(s: &CellStatus) -> &'static str {
        match s {
            CellStatus::Completed { .. } => "completed",
            CellStatus::Resumed { .. } => "resumed",
            CellStatus::Failed { .. } => "failed",
        }
    }

    #[test]
    fn panics_are_retried_then_terminal() {
        use std::sync::atomic::AtomicU32;
        let calls = Arc::new(AtomicU32::new(0));
        let calls2 = Arc::clone(&calls);
        let cfg = CampaignConfig {
            threads: 1,
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(2),
            pre_run_hook: Some(Arc::new(move |_key, _attempt| {
                calls2.fetch_add(1, Ordering::SeqCst);
                panic!("chaos: injected panic");
            })),
            ..CampaignConfig::default()
        };
        let report = run_campaign(&quick_jobs(1, 1), &cfg).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 3, "3 attempts consumed");
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].1.kind, FailureKind::Panic);
        assert!(failures[0].1.message.contains("injected panic"));
        assert_eq!(report.outcomes[0].attempts, 3);
    }

    #[test]
    fn tick_budget_times_out_deterministically() {
        let cfg = CampaignConfig {
            threads: 1,
            max_attempts: 2,
            backoff_base: Duration::from_millis(1),
            ..CampaignConfig::default()
        };
        let jobs: Vec<Job> = quick_jobs(1, 7)
            .into_iter()
            .map(|j| j.with_tick_budget(3))
            .collect();
        let report = run_campaign(&jobs, &cfg).unwrap();
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].1.kind, FailureKind::Timeout);
        assert_eq!(report.outcomes[0].attempts, 2, "timeouts are retried");
    }

    #[test]
    fn validation_failures_are_not_retried() {
        let mut jobs = quick_jobs(1, 11);
        jobs[0].builder = Arc::new(|_| Err("deliberately malformed cell".to_string()));
        let cfg = CampaignConfig {
            threads: 1,
            max_attempts: 5,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&jobs, &cfg).unwrap();
        assert_eq!(report.outcomes[0].attempts, 1, "no retry on validation");
        assert_eq!(report.failures()[0].1.kind, FailureKind::Validation);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let mut jobs = quick_jobs(2, 5);
        jobs[1].key = jobs[0].key.clone();
        match run_campaign(&jobs, &CampaignConfig::default()) {
            Err(e) => assert!(e.contains("duplicate")),
            Ok(_) => panic!("duplicate keys must be rejected"),
        }
    }

    #[test]
    fn backoff_is_deterministic_capped_and_grows() {
        let cfg = CampaignConfig {
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_millis(350),
            ..CampaignConfig::default()
        };
        let mut keys = quick_jobs(2, 0).into_iter().map(|j| j.key);
        let (key, other) = (keys.next().unwrap(), keys.next().unwrap());
        let d1 = backoff_delay(&cfg, &key, 1);
        assert_eq!(d1, backoff_delay(&cfg, &key, 1), "same inputs, same delay");
        assert!(d1 >= Duration::from_millis(50) && d1 <= Duration::from_millis(100));
        let d2 = backoff_delay(&cfg, &key, 2);
        assert!(d2 >= Duration::from_millis(100) && d2 <= Duration::from_millis(200));
        let d3 = backoff_delay(&cfg, &key, 3);
        assert!(
            d3 <= Duration::from_millis(350),
            "cap respected, got {d3:?}"
        );
        // A different cell jitters differently.
        assert_ne!(d1, backoff_delay(&cfg, &other, 1));
    }

    #[test]
    fn journal_entry_round_trips() {
        let e = JournalEntry {
            key: CellKey {
                scenario: "mobile-blockage".into(),
                strategy: "mm, \"quoted\"\nstrategy".into(),
                seed: 17,
                fault_spec: "seed=9;loss=0.5@0..1".into(),
                impairment_spec: "seed=3;pn=200000@0.001".into(),
            },
            status: "ok".into(),
            attempts: 2,
            digest: 0xdead_beef_0123_4567,
            tick_budget: Some(400),
            reliability: 0.97125,
            message: String::new(),
            features: "perf-counters,telemetry".into(),
        };
        let parsed = JournalEntry::parse(&e.to_json()).expect("parses");
        assert_eq!(parsed, e);
        let none_budget = JournalEntry {
            tick_budget: None,
            status: "panic".into(),
            message: "boom: {\"weird\"}".into(),
            ..e
        };
        let parsed = JournalEntry::parse(&none_budget.to_json()).expect("parses");
        assert_eq!(parsed, none_budget);
        let escapes = JournalEntry {
            message: "quote \" backslash \\ newline \n tab \t ctl \u{1} µ→".into(),
            ..none_budget.clone()
        };
        let line = escapes.to_json();
        mmwave_telemetry::validate_json_line(&line).expect("strict JSON");
        assert_eq!(JournalEntry::parse(&line).expect("parses"), escapes);
        // JSON has no NaN: a non-finite reliability is written as 0 and
        // still parses, so a resume does not stop at the line.
        let nan = JournalEntry {
            reliability: f64::NAN,
            ..none_budget
        };
        let line = nan.to_json();
        assert!(line.contains(r#""reliability":0,"#), "{line}");
        assert_eq!(JournalEntry::parse(&line).expect("parses").reliability, 0.0);
        assert!(JournalEntry::parse("{\"scenario\":\"torn-li").is_none());
        assert!(JournalEntry::parse("").is_none());
    }

    #[test]
    fn campaign_telemetry_is_inert_for_digests() {
        // A telemetry-capturing campaign must produce bit-identical
        // results to a bare one: the tracer observes, never perturbs.
        let bare = run_campaign(
            &quick_jobs(2, 1300),
            &CampaignConfig {
                threads: 1,
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        let traced = run_campaign(
            &quick_jobs(2, 1300),
            &CampaignConfig {
                threads: 1,
                telemetry: Some(TelemetrySpec::default()),
                ..CampaignConfig::default()
            },
        )
        .unwrap();
        for (b, t) in bare.outcomes.iter().zip(&traced.outcomes) {
            let (
                CellStatus::Completed { digest: db, .. },
                CellStatus::Completed { digest: dt, .. },
            ) = (&b.status, &t.status)
            else {
                panic!("both campaigns must complete");
            };
            assert_eq!(db, dt, "telemetry must not perturb the run");
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn campaign_trace_is_valid_jsonl_with_monotone_slots() {
        use std::collections::HashMap;
        let dir =
            std::env::temp_dir().join(format!("mmwave-campaign-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let chrome = dir.join("trace.chrome.json");
        let cfg = CampaignConfig {
            threads: 2,
            telemetry: Some(TelemetrySpec {
                trace: Some(trace.clone()),
                chrome_trace: Some(chrome.clone()),
                decimation: 4,
            }),
            ..CampaignConfig::default()
        };
        let report = run_campaign(&quick_jobs(2, 2100), &cfg).unwrap();

        // Merged histograms actually accumulated compute spans.
        assert!(report.hists.iter().any(|h| !h.is_empty()));
        assert!(report.latency().tick().count > 0);

        // Every trace line is strict JSON; slot timestamps are monotone
        // per cell.
        let text = std::fs::read_to_string(&trace).unwrap();
        let mut last_slot_t: HashMap<String, f64> = HashMap::new();
        let mut slot_lines = 0usize;
        for line in text.lines() {
            if let Err(e) = mmwave_telemetry::validate_json_line(line) {
                panic!("invalid trace line ({e}): {line}");
            }
            let cell = mmwave_telemetry::field_str(line, "cell").unwrap();
            if mmwave_telemetry::field_str(line, "kind").as_deref() == Some("slot") {
                let t = mmwave_telemetry::field_f64(line, "t_s").unwrap();
                if let Some(prev) = last_slot_t.get(&cell) {
                    assert!(t >= *prev, "slot time regressed in cell {cell}");
                }
                last_slot_t.insert(cell, t);
                slot_lines += 1;
            }
        }
        assert!(slot_lines > 0, "trace must contain slot records");
        assert_eq!(last_slot_t.len(), 2, "both cells traced");

        // The Chrome trace landed and is one JSON object.
        let chrome_text = std::fs::read_to_string(&chrome).unwrap();
        assert!(chrome_text.starts_with('{') && chrome_text.trim_end().ends_with('}'));
        assert!(chrome_text.contains("\"traceEvents\""));

        // Journal-side: compiled_features names the telemetry build.
        assert!(compiled_features().contains("telemetry"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn replay_traced_reproduces_digest_and_trace() {
        let entry = entry_with_impairment("none");
        let (first, trace) = replay_cell_traced(&entry, &TelemetrySpec::default());
        let (r1, d1) = first.expect("replay completes");
        assert!(!trace.events.is_empty(), "replay must capture events");
        assert!(trace.hists.iter().any(|h| !h.is_empty()));
        // Traced replay matches the untraced one bit for bit.
        let (_r2, d2) = replay_cell(&entry).expect("replay completes");
        assert_eq!(d1, d2, "tracing must not perturb the replay");
        assert!(r1.latency.tick().count > 0, "RunResult carries percentiles");
    }

    #[test]
    fn registry_names_all_build() {
        for name in crate::spec::registry_names() {
            assert!(build_scenario(name, 3).is_some(), "{name} must build");
        }
        for name in STRATEGY_NAMES {
            assert!(build_strategy(name).is_some(), "{name} must build");
        }
        assert!(build_scenario("nope", 0).is_none());
        assert!(build_strategy("nope").is_none());
        let job =
            Job::from_spec(&clean_spec("mobile-blockage", "single-beam-reactive", 5)).unwrap();
        assert_eq!(job.key.fault_spec, "none");
        // An unknown world has no spec; its journal line fails to parse.
        assert!(ScenarioSpec::parse_spec("nope//mmreliable//0//none").is_err());
        assert!(Job::from_spec(&clean_spec("mobile-blockage", "nope", 0)).is_err());
        let mut bad = clean_spec("mobile-blockage", "mmreliable", 0);
        bad.fault.stale_prob = 7.0;
        assert!(
            Job::from_spec(&bad).is_err(),
            "invalid fault schedule must fail job construction"
        );
        assert!(
            ScenarioSpec::parse_spec("mobile-blockage//mmreliable//0//seed=1;stale=7").is_err()
        );
    }

    fn clean_spec(world: &str, strategy: &str, seed: u64) -> ScenarioSpec {
        ScenarioSpec::single(WorldSpec::parse(world).unwrap(), strategy, seed)
    }

    #[test]
    fn cell_key_id_keeps_four_segments_for_clean_front_ends() {
        // The historical four-segment id is pinned by old journals and the
        // CI soak cell; only an actual impairment spec may extend it.
        let clean = Job::from_spec(&clean_spec("mobile-blockage", "mmreliable", 7000)).unwrap();
        assert_eq!(clean.key.id(), "mobile-blockage//mmreliable//7000//none");
        let impaired = Job::from_spec(&ScenarioSpec {
            impairment: ImpairmentConfig::mild(3),
            ..clean_spec("mobile-blockage", "mmreliable", 7000)
        })
        .unwrap();
        let id = impaired.key.id();
        assert_eq!(id.split("//").count(), 5, "impaired id gains one segment");
        assert!(id.starts_with("mobile-blockage//mmreliable//7000//none//seed=3;"));
        assert_eq!(ScenarioSpec::parse_spec(&id).unwrap().spec_string(), id);
        let mut bad = ImpairmentConfig::mild(3);
        bad.adc = Some(crate::impairments::AdcCfg {
            bits: 0,
            headroom_db: 9.0,
        });
        assert!(
            Job::from_spec(&ScenarioSpec {
                impairment: bad.clone(),
                ..clean_spec("mobile-blockage", "mmreliable", 7000)
            })
            .is_err(),
            "invalid impairment config must fail job construction"
        );
        assert!(ScenarioSpec::parse_spec(&format!(
            "mobile-blockage//mmreliable//7000//none//{}",
            bad.spec_string()
        ))
        .is_err());
    }

    fn entry_with_impairment(impairment: &str) -> JournalEntry {
        let key = CellKey {
            scenario: "mobile-blockage".into(),
            strategy: "single-beam-reactive".into(),
            seed: 5,
            fault_spec: "none".into(),
            impairment_spec: impairment.into(),
        };
        JournalEntry::new(key, Ok((0, 0.0)))
    }

    /// `entry`'s line as a journal written before the impairment layer
    /// and fleet mixes holds it: no impairment field, an empty fault.
    fn legacy_line(entry: &JournalEntry) -> String {
        entry
            .to_json()
            .replace(r#","impairment":"none""#, "")
            .replace(r#""fault":"none""#, r#""fault":"""#)
    }

    #[test]
    fn impaired_cell_replays_deterministically_and_differs_from_clean() {
        let clean = entry_with_impairment("none");
        let spec = ImpairmentConfig::mild(11).spec_string();
        let impaired = entry_with_impairment(&spec);
        let (_, d_clean) = replay_cell(&clean).expect("clean replay completes");
        let (_, d1) = replay_cell(&impaired).expect("impaired replay completes");
        let (_, d2) = replay_cell(&impaired).expect("impaired replay repeats");
        assert_eq!(d1, d2, "impaired replay must be deterministic");
        assert_ne!(d1, d_clean, "enabled impairments must perturb the digest");
        // A legacy line (impairment field absent, fault empty) parses to
        // the clean cell and replays as a clean front end.
        let legacy = JournalEntry::parse(&legacy_line(&clean)).expect("legacy line parses");
        assert_eq!(legacy, clean);
        let (_, d_legacy) = replay_cell(&legacy).expect("legacy replay completes");
        assert_eq!(d_legacy, d_clean);
    }

    #[test]
    fn journal_note_skips_exactly_the_lines_this_binary_cannot_rebuild() {
        let severe = ImpairmentConfig::severe(1).spec_string();
        let mut cases: Vec<(JournalEntry, bool)> = vec![
            (entry_with_impairment("none"), false),
            (entry_with_impairment(&severe), false),
            (entry_with_impairment("pn=bogus"), true),
        ];
        for (scenario, skipped) in [
            ("static-walker", false),
            ("fleet:static-walker:8", false),
            ("fleet:static-walker:8:ue3", false),
            ("fleet:weird:form:x:y", true),
            ("fleet:no-such-scene:8", true),
            ("fleet:static-walker:8:ue9", true),
            ("spec:v1:mixed-mobility", false),
            ("spec:v2:custom;room=tardis", true),
            ("spec:v1:garbage", true),
            // Unknown plain names replay to their validation failure.
            ("not-a-world", false),
        ] {
            let mut e = entry_with_impairment("none");
            e.key.scenario = scenario.into();
            // A legacy line (empty fault, no impairment field) of every
            // form routes like its modern twin.
            let legacy = JournalEntry::parse(&legacy_line(&e)).expect("legacy line parses");
            cases.push((e, skipped));
            cases.push((legacy, skipped));
        }
        let mut bad_fault = entry_with_impairment("none");
        bad_fault.key.fault_spec = "loss=bogus".into();
        cases.push((bad_fault, true));
        let mut bad_mix = entry_with_impairment("mix:none");
        bad_mix.key.scenario = "fleet:static-walker:8".into();
        bad_mix.key.fault_spec = "mix:none|none".into();
        cases.push((bad_mix, true));
        for (entry, skipped) in &cases {
            let note = journal_note(entry);
            assert_eq!(note.is_some(), *skipped, "{}: {note:?}", entry.key.id());
            assert_eq!(
                matches!(ReplayTarget::of(entry), ReplayTarget::Skip(_)),
                *skipped
            );
        }
    }

    #[test]
    fn committed_journals_round_trip_byte_for_byte() {
        // Resume rewrites every existing line through `to_json`, so the
        // codec must reproduce the committed journals exactly.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for name in ["admin-journal.jsonl", "admin-journal-replayable.jsonl"] {
            let text = std::fs::read_to_string(root.join(name)).expect("committed journal");
            assert!(text.lines().count() > 0);
            for line in text.lines() {
                let entry = JournalEntry::parse(line).expect("committed line parses");
                assert_eq!(entry.to_json(), line, "{name} line must round-trip");
            }
        }
    }
}
