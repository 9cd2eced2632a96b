//! Deterministic failure replay for campaign journals.
//!
//! ```text
//! cargo run --release -p mmwave-bench --bin replay -- <journal.jsonl> [--cell <id>] [--failures-only]
//! cargo run --release -p mmwave-bench --bin replay -- --line '<journal json line>'
//! ```
//!
//! Re-executes journal cells single-threaded from the registry — same
//! scenario, strategy, seed, fault schedule, and tick budget the campaign
//! recorded — and checks the outcome against the journal: an `ok` entry
//! must reproduce its result digest bit-for-bit, and a failure entry must
//! fail again with the same classification. Exit code 0 when every
//! replayed cell agrees with its journal line, 1 on any divergence, 2 on
//! usage errors. `--cell` selects a single cell by its
//! `scenario//strategy//seed//fault` id; `--failures-only` skips `ok`
//! entries (the common debugging loop: replay just what broke).
//!
//! Fleet journals replay too: a `fleet:{base}:{n}:ue{k}` member line
//! re-executes that one UE as a plain single-link cell (bit-identical to
//! its in-fleet run), and a `fleet:{base}:{n}` aggregate line re-executes
//! the whole fleet sequentially. A line this binary cannot rebuild — a
//! fleet or `spec:` form from a newer writer, a fleet base outside the
//! registry, a schedule spec that no longer parses — is noted and skipped
//! rather than failing the replay, and one unknown form notes once per
//! file ([`mmwave_sim::campaign::journal_note`]).

use mmwave_sim::campaign::{compiled_features, load_journal, replay_line, JournalEntry, Verdict};
use mmwave_sim::spec::spec_form_family;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: replay <journal.jsonl> [--cell <scenario//strategy//seed//fault>] [--failures-only]\n       replay --line '<journal json line>'"
    );
    ExitCode::from(2)
}

/// Replays one entry; returns `true` when the fresh outcome agrees with
/// the journal line or the line was skipped. `noted_forms` dedups skip
/// notes so a journal full of one future form notes once, not per line.
fn replay_one(entry: &JournalEntry, noted_forms: &mut BTreeSet<String>) -> bool {
    let key = entry.key();
    // Observability features (perf counters, telemetry) are excluded from
    // the digest, so a feature mismatch is informational, not a
    // divergence.
    let ours = compiled_features();
    if entry.features != ours {
        println!(
            "{key}: note: journal recorded features [{}], replay built with [{ours}] — \
             counters differ, payload bit-identical",
            entry.features
        );
    }
    // A journal written before the hardware-impairment layer existed
    // replays as a clean front end; say so before the digest comparison.
    if entry.impairment.is_empty() {
        println!(
            "{key}: note: journal predates the hardware-impairment layer; \
             replay assumes a clean front end"
        );
    }
    match replay_line(entry).verdict(entry) {
        Verdict::Reproduced(detail) => {
            println!("{key}: {} reproduced: {detail}", entry.status);
            true
        }
        Verdict::Digest(digest) => {
            println!(
                "{key}: ok, digest {digest:016x} != journal {:016x} (DIVERGED)",
                entry.digest
            );
            false
        }
        Verdict::Status(ended) => {
            println!(
                "{key}: journal says {} but replay ended {ended} — NOT reproduced",
                entry.status
            );
            false
        }
        Verdict::Skipped(note) => {
            if noted_forms.insert(spec_form_family(&entry.scenario).to_string()) {
                println!("{key}: note: {note} — skipping, not a divergence");
            } else {
                println!("{key}: skipped (form noted above)");
            }
            true
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut cell: Option<String> = None;
    let mut line: Option<String> = None;
    let mut failures_only = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cell" => match it.next() {
                Some(v) => cell = Some(v),
                None => return usage(),
            },
            "--line" => match it.next() {
                Some(v) => line = Some(v),
                None => return usage(),
            },
            "--failures-only" => failures_only = true,
            "--help" | "-h" => return usage(),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            _ => return usage(),
        }
    }

    let entries: Vec<JournalEntry> = if let Some(l) = line {
        match JournalEntry::parse(&l) {
            Some(e) => vec![e],
            None => {
                eprintln!("replay: malformed journal line");
                return ExitCode::from(2);
            }
        }
    } else if let Some(p) = path {
        match load_journal(Path::new(&p)) {
            Ok(es) => es,
            Err(e) => {
                eprintln!("replay: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        return usage();
    };

    let selected: Vec<&JournalEntry> = entries
        .iter()
        .filter(|e| cell.as_ref().is_none_or(|c| e.key().id() == *c))
        .filter(|e| !failures_only || e.status != "ok")
        .collect();
    if selected.is_empty() {
        eprintln!("replay: no matching journal entries");
        return ExitCode::from(2);
    }

    let mut divergences = 0usize;
    let mut noted_forms = BTreeSet::new();
    for entry in &selected {
        if !replay_one(entry, &mut noted_forms) {
            divergences += 1;
        }
    }
    println!(
        "replayed {} cell(s), {divergences} divergence(s)",
        selected.len()
    );
    if divergences == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
