//! The library half of the `mmwave-admin` operator CLI.
//!
//! Everything the binary (`src/bin/admin.rs`) prints is produced here as
//! plain strings or typed reports, so the test suite can drive the whole
//! surface — status rollups, transition-tape history, per-cell traces,
//! metrics merging, journal diffing and self-replay, live tailing —
//! against synthetic journals without spawning a process.
//!
//! Design rules:
//!
//! * **Tolerant reads.** Operators point this tool at journals from
//!   crashed or live runs. A torn trailing line, a legacy 4-segment cell
//!   id, or a fleet form from a newer binary must never panic — they are
//!   counted, noted, and skipped.
//! * **Last entry wins.** A journal appends; re-runs supersede earlier
//!   lines for the same cell. Every rollup and diff dedups by cell id
//!   keeping the final line, mirroring the campaign's own resume logic.
//! * **Replay is the source of truth for history.** `history` and `trace`
//!   re-execute the journaled cell (bit-identical by construction) and
//!   print what the run actually produced: the lifecycle transition tape,
//!   cross-checked against [`check_transition_tape`], or the per-slot
//!   trace. Every replay routes its line through [`ReplayTarget::of`] or
//!   [`replay_line`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use mmreliable::linkstate::check_transition_tape;
use mmreliable::Transition;
use mmwave_sim::campaign::{
    compiled_features, replay_cell, replay_cell_traced, replay_line, JournalEntry, LineReplay,
    ReplayTarget, TelemetrySpec, Verdict,
};
use mmwave_sim::fleet::{parse_fleet_scenario, FleetScenarioRef};
use mmwave_sim::RunResult;
use mmwave_telemetry::{MetricsRegistry, Stage, TraceEvent};

// ---------------------------------------------------------------------------
// Journal scanning
// ---------------------------------------------------------------------------

/// A tolerant read of a journal: parseable entries plus a count of the
/// lines that did not parse (torn tail of a live/crashed writer, foreign
/// garbage). [`mmwave_sim::campaign::load_journal`] by contrast stops at
/// the first malformed line — correct for resume (a torn line invalidates everything after
/// it), too strict for inspection.
pub struct JournalScan {
    /// Entries in file order (duplicates preserved).
    pub entries: Vec<JournalEntry>,
    /// Lines that failed to parse.
    pub torn: usize,
}

/// Reads a journal tolerantly (see [`JournalScan`]). A missing file is an
/// empty scan, matching `load_journal`.
pub fn scan_journal(path: &Path) -> Result<JournalScan, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(JournalScan {
                entries: Vec::new(),
                torn: 0,
            })
        }
        Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
    };
    let mut scan = JournalScan {
        entries: Vec::new(),
        torn: 0,
    };
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match JournalEntry::parse(line) {
            Some(e) => scan.entries.push(e),
            None => scan.torn += 1,
        }
    }
    Ok(scan)
}

/// Reads one side of a two-journal `diff`. Unlike [`scan_journal`], a
/// side with no entries (a missing, empty or torn-only file) is an error
/// naming the path: diffing it would compare nothing and pass.
pub fn scan_diff_side(path: &Path) -> Result<JournalScan, String> {
    let scan = scan_journal(path)?;
    if scan.entries.is_empty() {
        return Err(format!(
            "journal {} has no entries to diff (missing or empty file?)",
            path.display()
        ));
    }
    Ok(scan)
}

/// Dedups a scan by cell id, keeping the *last* entry for each id (the
/// journal is append-only; later lines supersede earlier ones). Returns
/// ids in first-seen order alongside the superseded-line count.
pub fn dedup_last_wins(entries: &[JournalEntry]) -> (Vec<(String, &JournalEntry)>, usize) {
    let mut order: Vec<String> = Vec::new();
    let mut last: BTreeMap<String, &JournalEntry> = BTreeMap::new();
    let mut superseded = 0;
    for e in entries {
        let id = e.key.id();
        if last.insert(id.clone(), e).is_some() {
            superseded += 1;
        } else {
            order.push(id);
        }
    }
    (
        order
            .into_iter()
            .map(|id| {
                let e = last[&id];
                (id, e)
            })
            .collect(),
        superseded,
    )
}

// ---------------------------------------------------------------------------
// status
// ---------------------------------------------------------------------------

/// Campaign/cell/UE rollup of a journal, one report string.
pub fn status_report(scan: &JournalScan) -> String {
    let (cells, superseded) = dedup_last_wins(&scan.entries);
    let mut by_status: BTreeMap<&str, usize> = BTreeMap::new();
    let mut singles = 0usize;
    let mut aggregates = 0usize;
    let mut members = 0usize;
    // base scenario -> (members seen, members ok, aggregate line present)
    let mut fleets: BTreeMap<String, (u32, u32, bool)> = BTreeMap::new();
    let mut ok_rel: Vec<f64> = Vec::new();
    for (_, e) in &cells {
        *by_status.entry(e.status.as_str()).or_default() += 1;
        if e.status == "ok" {
            ok_rel.push(e.reliability);
        }
        match parse_fleet_scenario(&e.key.scenario) {
            None => singles += 1,
            Some(FleetScenarioRef::Aggregate { base, n_ues }) => {
                aggregates += 1;
                fleets.entry(format!("fleet:{base}:{n_ues}")).or_default().2 = true;
            }
            Some(FleetScenarioRef::PerUe { base, n_ues, .. }) => {
                members += 1;
                let f = fleets.entry(format!("fleet:{base}:{n_ues}")).or_default();
                f.0 += 1;
                if e.status == "ok" {
                    f.1 += 1;
                }
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "journal: {} lines -> {} cells ({} superseded, {} torn)",
        scan.entries.len(),
        cells.len(),
        superseded,
        scan.torn
    );
    let status_line = by_status
        .iter()
        .map(|(k, v)| format!("{k} {v}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        out,
        "status: {}",
        if status_line.is_empty() {
            "empty".to_string()
        } else {
            status_line
        }
    );
    let _ = writeln!(
        out,
        "kinds: {singles} single-link, {aggregates} fleet aggregates, {members} fleet members"
    );
    if !ok_rel.is_empty() {
        let (mut lo, mut hi, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for &r in &ok_rel {
            lo = lo.min(r);
            hi = hi.max(r);
            sum += r;
        }
        let _ = writeln!(
            out,
            "reliability (ok cells): mean {:.4}, min {:.4}, max {:.4}",
            sum / ok_rel.len() as f64,
            lo,
            hi
        );
    }
    for (fleet, (seen, ok, agg)) in &fleets {
        let _ = writeln!(
            out,
            "{fleet}: {seen} members journaled ({ok} ok), aggregate {}",
            if *agg { "present" } else { "missing" }
        );
    }
    out
}

// ---------------------------------------------------------------------------
// history
// ---------------------------------------------------------------------------

/// Resolves a resource argument (`history`, `trace`, `diff --replay
/// --cell`) against deduped cells: exact cell id first, then exact
/// scenario-field match (`fleet:...:ue3` without the strategy/seed
/// segments) when that is unambiguous.
pub fn find_resource<'e>(
    cells: &[(String, &'e JournalEntry)],
    resource: &str,
) -> Result<&'e JournalEntry, String> {
    if let Some((_, e)) = cells.iter().find(|(id, _)| id == resource) {
        return Ok(e);
    }
    let by_scenario: Vec<&&JournalEntry> = cells
        .iter()
        .filter(|(_, e)| e.key.scenario == resource)
        .map(|(_, e)| e)
        .collect();
    match by_scenario.as_slice() {
        [e] => Ok(**e),
        [] => Err(format!(
            "no journaled cell matches {resource:?} (try `mmwave-admin status` for the cell list)"
        )),
        many => Err(format!(
            "{resource:?} is ambiguous: {} journaled cells share that scenario; pass a full cell id",
            many.len()
        )),
    }
}

/// Resolves one resource ([`find_resource`], last line wins) to its
/// journal line and the link cell that line replays as
/// ([`ReplayTarget::of`]): a fleet member becomes its single-link cell.
/// Errors on aggregate fleet lines (their members own the tapes and
/// traces) and on lines this binary cannot rebuild (with the skip note).
fn routed_cell<'e>(
    scan: &'e JournalScan,
    resource: &str,
) -> Result<(&'e JournalEntry, JournalEntry), String> {
    let (cells, _) = dedup_last_wins(&scan.entries);
    let entry = find_resource(&cells, resource)?;
    match ReplayTarget::of(entry) {
        ReplayTarget::Cell(cell) => Ok((entry, cell)),
        ReplayTarget::Fleet(_) => Err(format!(
            "{resource:?} is a fleet aggregate; ask a member instead (e.g. {}:ue0)",
            entry.key.scenario
        )),
        ReplayTarget::Skip(note) => Err(format!(
            "{resource:?} cannot be replayed by this binary: {note}"
        )),
    }
}

/// Replays the journaled cell behind one resource and renders its
/// lifecycle transition tape — the exact tape `check_transition_tape`
/// validates, cross-checked here before printing. A fleet member replays
/// as its single-link cell ([`ReplayTarget::of`]). Errors on aggregate
/// fleet lines (their members own the tapes), on lines this binary cannot
/// rebuild (with the skip note), and on entries whose replay reproduces a
/// recorded failure (the failure class is reported instead).
pub fn history_report(scan: &JournalScan, resource: &str) -> Result<String, String> {
    let (entry, cell) = routed_cell(scan, resource)?;
    if entry.status != "ok" {
        return Err(format!(
            "cell {} journaled as {:?} ({}); only completed cells have a replayable tape",
            entry.key.id(),
            entry.status,
            if entry.message.is_empty() {
                "no message"
            } else {
                &entry.message
            }
        ));
    }
    let (result, digest) = replay_cell(&cell)
        .map_err(|f| format!("replay reproduces {}: {}", f.kind.as_str(), f.message))?;
    let tape: Vec<&Transition> = result.transitions().collect();
    check_transition_tape(tape.iter().copied())
        .map_err(|e| format!("replayed tape violates the lifecycle contract: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(out, "cell {}", entry.key.id());
    let _ = writeln!(
        out,
        "digest {digest:016x} ({})",
        if digest == entry.digest {
            "matches journal"
        } else {
            "JOURNAL MISMATCH"
        }
    );
    let _ = writeln!(out, "transitions: {} (tape legal, not wedged)", tape.len());
    for (i, tr) in tape.iter().enumerate() {
        let _ = writeln!(
            out,
            "#{i:<3} t={:>9.3}s  {:>10} -> {:<10} cause={}",
            tr.t_s,
            tr.from.kind().name(),
            tr.to.kind().name(),
            tr.cause.name()
        );
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

/// How `trace` renders a replayed cell's capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Replay outcome against the journal, event counts by kind,
    /// per-stage latency percentiles, and every lifecycle transition and
    /// backoff decision in order.
    Summary,
    /// The decimated per-slot records as
    /// `slot,t_s,snr_db,blockage_db,probing,outage` rows.
    Csv,
    /// Every captured event as a cell-tagged JSON line — the schema the
    /// campaign's trace file uses.
    Jsonl,
}

/// A rendered trace and how its replay compares with the journal line.
pub struct TraceReport {
    /// The rendering, ready to print.
    pub text: String,
    /// [`Verdict::Reproduced`] when the replay matches the journal line.
    pub verdict: Verdict,
}

fn fmt_us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

/// Replays the journaled cell behind one resource under a ring-buffered
/// tracer that keeps every `decimation`-th slot record, and renders the
/// capture. The resource routes as in [`history_report`]: a fleet member
/// traces as its single-link cell, and an aggregate or a line this binary
/// cannot rebuild is an error. A journaled failure traces too — the
/// capture covers the slots leading up to the reproduced crash. Built
/// without the `telemetry` feature, the capture is empty.
pub fn trace_report(
    scan: &JournalScan,
    resource: &str,
    format: TraceFormat,
    decimation: u64,
) -> Result<TraceReport, String> {
    let (entry, cell) = routed_cell(scan, resource)?;
    let spec = TelemetrySpec {
        decimation,
        ..TelemetrySpec::default()
    };
    let (outcome, trace) = replay_cell_traced(&cell, &spec);
    let replayed = match &outcome {
        Ok((result, digest)) => format!(
            "ok, digest {digest:016x} (reliability {:.4})",
            result.reliability()
        ),
        Err(f) => format!("{}: {}", f.kind.as_str(), f.message),
    };
    let verdict = LineReplay::Cell(outcome).verdict(entry);
    let id = entry.key.id();
    let mut out = String::new();
    match format {
        TraceFormat::Csv => {
            let _ = writeln!(out, "slot,t_s,snr_db,blockage_db,probing,outage");
            for ev in &trace.events {
                if let TraceEvent::Slot(s) = ev {
                    let snr = if s.snr_db.is_finite() {
                        format!("{:.3}", s.snr_db)
                    } else {
                        String::new()
                    };
                    let _ = writeln!(
                        out,
                        "{},{:.6},{snr},{:.3},{},{}",
                        s.slot, s.t_s, s.blockage_db, s.probing, s.outage
                    );
                }
            }
        }
        TraceFormat::Jsonl => {
            for ev in &trace.events {
                let _ = writeln!(out, "{}", ev.to_json(&id));
            }
        }
        TraceFormat::Summary => {
            let _ = writeln!(out, "cell: {}", entry.key);
            let journal = if entry.status == "ok" {
                format!("ok, digest {:016x}", entry.digest)
            } else {
                entry.status.clone()
            };
            let _ = writeln!(
                out,
                "replay: {replayed}; journal: {journal} ({})",
                if matches!(verdict, Verdict::Reproduced(_)) {
                    "reproduced"
                } else {
                    "DIVERGED"
                }
            );
            let _ = writeln!(
                out,
                "events: {} captured, {} dropped by the ring",
                trace.events.len(),
                trace.dropped
            );
            let mut by_kind: BTreeMap<&str, usize> = BTreeMap::new();
            for ev in &trace.events {
                *by_kind.entry(ev.kind()).or_default() += 1;
            }
            for (kind, n) in &by_kind {
                let _ = writeln!(out, "  {kind}: {n}");
            }
            let _ = writeln!(out, "latency (µs):");
            let _ = writeln!(
                out,
                "  {:<18} {:>8} {:>8} {:>8} {:>8} {:>8}",
                "stage", "count", "p50", "p95", "p99", "max"
            );
            for stage in Stage::ALL {
                let h = &trace.hists[stage.index()];
                if h.is_empty() {
                    continue;
                }
                let s = h.summary();
                let _ = writeln!(
                    out,
                    "  {:<18} {:>8} {:>8} {:>8} {:>8} {:>8}",
                    stage.name(),
                    s.count,
                    fmt_us(s.p50_ns),
                    fmt_us(s.p95_ns),
                    fmt_us(s.p99_ns),
                    fmt_us(s.max_ns)
                );
            }
            for ev in &trace.events {
                match ev {
                    TraceEvent::Lifecycle {
                        t_s,
                        from,
                        to,
                        cause,
                    } => {
                        let _ = writeln!(out, "  t={t_s:.3}s lifecycle {from} -> {to} ({cause})");
                    }
                    TraceEvent::Decision { t_s, what } => {
                        let _ = writeln!(out, "  t={t_s:.3}s decision: {what}");
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(TraceReport { text: out, verdict })
}

// ---------------------------------------------------------------------------
// metrics
// ---------------------------------------------------------------------------

/// Merges any number of metrics snapshots (JSONL, as written by the fleet
/// and campaign capture layers) into one registry: counters add, gauges
/// last-write-win in argument order, histograms merge bucket-for-bucket.
/// Unparseable lines error with their path and line number.
pub fn merge_snapshots(paths: &[impl AsRef<Path>]) -> Result<MetricsRegistry, String> {
    let mut reg = MetricsRegistry::new();
    for p in paths {
        let p = p.as_ref();
        let text = std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read snapshot {}: {e}", p.display()))?;
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            reg.absorb_line(line)
                .map_err(|e| format!("{}:{}: {e}", p.display(), n + 1))?;
        }
    }
    Ok(reg)
}

/// One line per histogram in a registry: count, p50/p95/p99, max. The
/// `tail` subcommand reprints this as snapshots evolve.
pub fn hist_summary(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (res, metric, h) in reg.histograms() {
        let _ = writeln!(
            out,
            "{metric}[{res}]: n={} p50={}ns p95={}ns p99={}ns max={}ns",
            h.count(),
            h.percentile_ns(50.0),
            h.percentile_ns(95.0),
            h.percentile_ns(99.0),
            h.max_ns()
        );
    }
    out
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

/// How one cell id compares across two journals (or across a journal and
/// its own replay).
#[derive(Debug, PartialEq)]
pub enum CellDiff {
    /// Same digest, same status — bit-identical.
    Identical,
    /// Both completed but with different digests; when replays of both
    /// sides disagree sample-for-sample, `first_divergent_slot` holds the
    /// first differing sample index.
    DivergentDigest {
        /// Digest on side A.
        a: u64,
        /// Digest on side B.
        b: u64,
        /// First sample index where replays of the two sides differ;
        /// `None` when the replays are bit-identical (the recorded
        /// digests disagree with what the cell reproduces today) or when
        /// localization was not attempted.
        first_divergent_slot: Option<usize>,
    },
    /// The journals record different statuses (e.g. `ok` vs `timeout`).
    DivergentStatus {
        /// Status on side A.
        a: String,
        /// Status on side B.
        b: String,
    },
    /// Present only in journal A.
    OnlyInA,
    /// Present only in journal B.
    OnlyInB,
    /// Not replayed: this binary cannot rebuild the line, for the noted
    /// reason. Not a divergence.
    Skipped(String),
}

/// A full journal-vs-journal comparison.
pub struct DiffReport {
    /// `(cell id, classification)`, sorted by id.
    pub rows: Vec<(String, CellDiff)>,
    /// Torn line counts for the two sides.
    pub torn: (usize, usize),
    /// For a self-replay: the journal's feature sets that differ from
    /// this build's [`compiled_features`]. Counters and latency differ;
    /// the payload and its digest do not.
    pub feature_note: Option<String>,
}

impl DiffReport {
    /// True when every common cell is bit-identical or skipped and
    /// neither side has cells the other lacks.
    pub fn all_identical(&self) -> bool {
        self.rows
            .iter()
            .all(|(_, d)| matches!(d, CellDiff::Identical | CellDiff::Skipped(_)))
    }

    /// Renders the report; identical cells compress to a count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let count = |f: fn(&CellDiff) -> bool| self.rows.iter().filter(|(_, d)| f(d)).count();
        let identical = count(|d| *d == CellDiff::Identical);
        let skipped = count(|d| matches!(d, CellDiff::Skipped(_)));
        let _ = writeln!(
            out,
            "{} cells compared: {} identical, {} skipped, {} divergent/missing (torn lines: {} vs {})",
            self.rows.len(),
            identical,
            skipped,
            self.rows.len() - identical - skipped,
            self.torn.0,
            self.torn.1
        );
        if let Some(note) = &self.feature_note {
            let _ = writeln!(out, "note: {note}");
        }
        for (id, d) in &self.rows {
            match d {
                CellDiff::Identical => {}
                CellDiff::DivergentDigest {
                    a,
                    b,
                    first_divergent_slot,
                } => {
                    let at = match first_divergent_slot {
                        Some(n) => format!("divergent at slot {n}"),
                        None => "replays bit-identical; recorded digests differ".to_string(),
                    };
                    let _ = writeln!(out, "divergent  {id}: {a:016x} vs {b:016x} ({at})");
                }
                CellDiff::DivergentStatus { a, b } => {
                    let _ = writeln!(out, "divergent  {id}: status {a:?} vs {b:?}");
                }
                CellDiff::OnlyInA => {
                    let _ = writeln!(out, "missing-in-b  {id}");
                }
                CellDiff::OnlyInB => {
                    let _ = writeln!(out, "missing-in-a  {id}");
                }
                CellDiff::Skipped(note) => {
                    let _ = writeln!(out, "skipped  {id}: {note}");
                }
            }
        }
        out
    }
}

/// First sample index at which two runs differ bit-for-bit, `None` when
/// the tapes are identical. Floats compare by bit pattern so NaN probing
/// gaps compare equal and a 1-ulp drift still registers.
pub fn first_divergent_slot(a: &RunResult, b: &RunResult) -> Option<usize> {
    let (sa, sb) = (&a.samples, &b.samples);
    for i in 0..sa.len().min(sb.len()) {
        let (x, y) = (&sa[i], &sb[i]);
        if x.t_s.to_bits() != y.t_s.to_bits()
            || x.dur_s.to_bits() != y.dur_s.to_bits()
            || x.snr_db.to_bits() != y.snr_db.to_bits()
            || x.probing != y.probing
        {
            return Some(i);
        }
    }
    (sa.len() != sb.len()).then(|| sa.len().min(sb.len()))
}

/// Replays a link cell or fleet member line to its run for localization;
/// `None` for fleet aggregates (their digest is a fold over member
/// digests — diff the members instead), lines this binary cannot rebuild,
/// and replays that fail.
fn replay_run(entry: &JournalEntry) -> Option<RunResult> {
    match ReplayTarget::of(entry) {
        ReplayTarget::Cell(cell) => replay_cell(&cell).ok().map(|(r, _)| r),
        ReplayTarget::Fleet(_) | ReplayTarget::Skip(_) => None,
    }
}

/// Diffs two journal scans cell-by-cell (last entry wins on both sides).
/// With `localize`, divergent-digest cells are replayed on both sides to
/// pin the first divergent sample.
pub fn diff_journals(a: &JournalScan, b: &JournalScan, localize: bool) -> DiffReport {
    let (cells_a, _) = dedup_last_wins(&a.entries);
    let (cells_b, _) = dedup_last_wins(&b.entries);
    let map_a: BTreeMap<&str, &JournalEntry> =
        cells_a.iter().map(|(id, e)| (id.as_str(), *e)).collect();
    let map_b: BTreeMap<&str, &JournalEntry> =
        cells_b.iter().map(|(id, e)| (id.as_str(), *e)).collect();
    let mut ids: Vec<&str> = map_a.keys().chain(map_b.keys()).copied().collect();
    ids.sort_unstable();
    ids.dedup();
    let mut rows = Vec::with_capacity(ids.len());
    for id in ids {
        let d = match (map_a.get(id), map_b.get(id)) {
            (Some(ea), Some(eb)) => {
                if ea.status != eb.status {
                    CellDiff::DivergentStatus {
                        a: ea.status.clone(),
                        b: eb.status.clone(),
                    }
                } else if ea.digest == eb.digest {
                    CellDiff::Identical
                } else {
                    let slot = (localize && ea.status == "ok")
                        .then(|| replay_run(ea))
                        .flatten()
                        .and_then(|ra| first_divergent_slot(&ra, &replay_run(eb)?));
                    CellDiff::DivergentDigest {
                        a: ea.digest,
                        b: eb.digest,
                        first_divergent_slot: slot,
                    }
                }
            }
            (Some(_), None) => CellDiff::OnlyInA,
            (None, Some(_)) => CellDiff::OnlyInB,
            (None, None) => unreachable!("id came from one of the maps"),
        };
        rows.push((id.to_string(), d));
    }
    DiffReport {
        rows,
        torn: (a.torn, b.torn),
        feature_note: None,
    }
}

/// Narrows a journal to what `diff --replay` re-executes: the last line of
/// each cell, only `cell`'s ([`find_resource`]) when given, and only
/// non-`ok` lines with `failures_only`. Errors when nothing is left, so a
/// mistyped id or journal path (a missing file scans empty) cannot pass
/// as a clean replay.
pub fn select_cells(
    scan: &JournalScan,
    cell: Option<&str>,
    failures_only: bool,
) -> Result<JournalScan, String> {
    let (cells, _) = dedup_last_wins(&scan.entries);
    let picked = match cell {
        Some(resource) => vec![find_resource(&cells, resource)?],
        None => cells.iter().map(|(_, e)| *e).collect(),
    };
    let entries: Vec<JournalEntry> = picked
        .into_iter()
        .filter(|e| !failures_only || e.status != "ok")
        .cloned()
        .collect();
    if entries.is_empty() {
        return Err(if failures_only {
            "no selected cell failed; --failures-only leaves nothing to replay".into()
        } else {
            "the journal has no cells to replay".into()
        });
    }
    Ok(JournalScan {
        entries,
        torn: scan.torn,
    })
}

/// Diffs a journal against its own fresh replay: every deduped entry is
/// re-executed and the reproduced digest (for ok cells) or failure class
/// (for failed cells) is compared against what the journal recorded; a
/// line this binary cannot rebuild is a [`CellDiff::Skipped`] row with
/// its note. This is the self-consistency check the CI smoke runs — a
/// bit-identical codebase yields an all-identical report.
pub fn self_replay_diff(scan: &JournalScan) -> DiffReport {
    let (cells, _) = dedup_last_wins(&scan.entries);
    let ours = compiled_features();
    let mut foreign: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, e) in &cells {
        if e.features != ours {
            *foreign.entry(e.features.as_str()).or_default() += 1;
        }
    }
    let feature_note = (!foreign.is_empty()).then(|| {
        let sets: Vec<String> = foreign
            .iter()
            .map(|(f, n)| format!("[{f}] on {n} cell(s)"))
            .collect();
        format!(
            "journal features {} differ from this build's [{ours}]; counters differ, payloads bit-identical",
            sets.join(", ")
        )
    });
    let mut rows = Vec::with_capacity(cells.len());
    for (id, e) in cells {
        let d = match replay_line(e).verdict(e) {
            Verdict::Reproduced(_) => CellDiff::Identical,
            Verdict::Digest(digest) => CellDiff::DivergentDigest {
                a: e.digest,
                b: digest,
                first_divergent_slot: None,
            },
            Verdict::Status(ended) => CellDiff::DivergentStatus {
                a: e.status.clone(),
                b: ended,
            },
            Verdict::Skipped(note) => CellDiff::Skipped(note),
        };
        rows.push((id, d));
    }
    DiffReport {
        rows,
        torn: (scan.torn, scan.torn),
        feature_note,
    }
}

// ---------------------------------------------------------------------------
// tail
// ---------------------------------------------------------------------------

/// Incremental journal follower: feed it raw chunks as the file grows and
/// it yields complete parsed entries, holding a trailing partial line
/// until its newline arrives (a live writer's torn tail is *pending*, not
/// torn — only a completed line that fails to parse counts as torn).
#[derive(Default)]
pub struct TailState {
    partial: String,
    /// Completed lines that failed to parse.
    pub torn: usize,
    /// Entries yielded so far.
    pub seen: usize,
}

impl TailState {
    /// Consumes one chunk of appended journal bytes.
    pub fn feed(&mut self, chunk: &str) -> Vec<JournalEntry> {
        self.partial.push_str(chunk);
        let mut out = Vec::new();
        while let Some(nl) = self.partial.find('\n') {
            let line: String = self.partial.drain(..=nl).collect();
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match JournalEntry::parse(line) {
                Some(e) => {
                    self.seen += 1;
                    out.push(e);
                }
                None => self.torn += 1,
            }
        }
        out
    }
}

/// One-line rendering of a journal entry for `tail` and `status -v`.
pub fn entry_line(e: &JournalEntry) -> String {
    if e.status == "ok" {
        format!(
            "ok         {}  digest {:016x}  rel {:.4}",
            e.key.id(),
            e.digest,
            e.reliability
        )
    } else {
        format!(
            "{:<10} {}  attempts {}  {}",
            e.status,
            e.key.id(),
            e.attempts,
            e.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_sim::campaign::CellKey;

    fn entry(scenario: &str, seed: u64, status: &str, digest: u64) -> JournalEntry {
        JournalEntry {
            key: CellKey {
                scenario: scenario.to_string(),
                strategy: "mmreliable".to_string(),
                seed,
                fault_spec: "none".to_string(),
                impairment_spec: "none".to_string(),
            },
            status: status.to_string(),
            attempts: 1,
            digest,
            tick_budget: None,
            reliability: if status == "ok" { 0.99 } else { 0.0 },
            message: String::new(),
            features: String::new(),
        }
    }

    #[test]
    fn dedup_keeps_the_last_entry_per_cell() {
        let entries = vec![
            entry("a", 1, "timeout", 0),
            entry("b", 2, "ok", 7),
            entry("a", 1, "ok", 5),
        ];
        let (cells, superseded) = dedup_last_wins(&entries);
        assert_eq!(superseded, 1);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].1.status, "ok");
        assert_eq!(cells[0].1.digest, 5);
    }

    #[test]
    fn legacy_and_modern_clean_ids_coincide() {
        let modern = entry("a", 1, "ok", 5);
        // A pre-impairment journal line has no impairment field.
        let legacy_line = modern.to_json().replace(r#","impairment":"none""#, "");
        let legacy = JournalEntry::parse(&legacy_line).expect("legacy line parses");
        assert_eq!(legacy.key.id(), modern.key.id());
        assert_eq!(modern.key.id().matches("//").count(), 3);
        let mut impaired = entry("a", 1, "ok", 5);
        impaired.key.impairment_spec = "pn-strong".to_string();
        assert_eq!(impaired.key.id().matches("//").count(), 4);
    }

    #[test]
    fn tail_holds_partial_lines_until_complete() {
        let line = entry("a", 1, "ok", 5).to_json();
        let (head, rest) = line.split_at(10);
        let mut tail = TailState::default();
        assert!(tail.feed(head).is_empty());
        assert!(tail.feed(rest).is_empty()); // newline not yet written
        let got = tail.feed("\n");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].key.scenario, "a");
        assert_eq!(tail.torn, 0);
        // A completed garbage line is torn; a trailing fragment is not.
        assert!(tail.feed("garbage\n{\"scen").is_empty());
        assert_eq!(tail.torn, 1);
    }

    #[test]
    fn diff_classifies_without_replaying() {
        let a = JournalScan {
            entries: vec![
                entry("x", 1, "ok", 10),
                entry("y", 2, "ok", 20),
                entry("z", 3, "timeout", 0),
                entry("only-a", 4, "ok", 40),
            ],
            torn: 1,
        };
        let b = JournalScan {
            entries: vec![
                entry("x", 1, "ok", 10),
                entry("y", 2, "ok", 21),
                entry("z", 3, "ok", 30),
                entry("only-b", 5, "ok", 50),
            ],
            torn: 0,
        };
        let report = diff_journals(&a, &b, false);
        assert!(!report.all_identical());
        let by_id: BTreeMap<&str, &CellDiff> = report
            .rows
            .iter()
            .map(|(id, d)| (id.split("//").next().unwrap(), d))
            .collect();
        assert_eq!(by_id["x"], &CellDiff::Identical);
        assert!(matches!(
            by_id["y"],
            CellDiff::DivergentDigest { a: 20, b: 21, .. }
        ));
        assert!(matches!(by_id["z"], CellDiff::DivergentStatus { .. }));
        assert_eq!(by_id["only-a"], &CellDiff::OnlyInA);
        assert_eq!(by_id["only-b"], &CellDiff::OnlyInB);
        assert_eq!(report.torn, (1, 0));
    }

    #[test]
    fn status_report_rolls_up_fleet_members() {
        let scan = JournalScan {
            entries: vec![
                entry("fleet:static-walker:2:ue0", 100, "ok", 1),
                entry("fleet:static-walker:2:ue1", 101, "ok", 2),
                entry("fleet:static-walker:2", 42, "ok", 3),
                entry("plain", 7, "panic", 0),
            ],
            torn: 0,
        };
        let report = status_report(&scan);
        assert!(report.contains("1 single-link, 1 fleet aggregates, 2 fleet members"));
        assert!(
            report.contains("fleet:static-walker:2: 2 members journaled (2 ok), aggregate present")
        );
        assert!(report.contains("ok 3, panic 1"));
    }
}
