//! End-to-end coverage of the `mmwave-admin` logic over *real* journals:
//! a small campaign and a small fleet write journals through the
//! production paths, then the admin layer reads them back — rollup,
//! transition-tape history, per-cell traces, self-replay diff and its
//! cell selection, torn-line tolerance, legacy 4-segment ids, a
//! two-journal diff's refusal of an empty side (through the binary), and
//! metrics snapshot merging.

use std::path::PathBuf;

use mmwave_bench::admin::{
    diff_journals, history_report, merge_snapshots, scan_diff_side, scan_journal, select_cells,
    self_replay_diff, status_report, trace_report, CellDiff, JournalScan, TraceFormat,
};
use mmwave_sim::campaign::{
    journal_note, run_campaign, CampaignConfig, Job, JournalEntry, Verdict,
};
use mmwave_sim::fleet::{run_fleet, FleetConfig};
use mmwave_sim::{ScenarioSpec, WorldSpec};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mmwave-admin-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

fn campaign_journal(name: &str, seeds: std::ops::Range<u64>) -> PathBuf {
    let journal = tmp(name);
    let _ = std::fs::remove_file(&journal);
    let jobs: Vec<Job> = seeds
        .map(|s| {
            Job::from_spec(&ScenarioSpec::single(
                WorldSpec::MobileBlockage,
                "mmreliable",
                s,
            ))
            .expect("registry job")
        })
        .collect();
    let cfg = CampaignConfig {
        threads: 1,
        journal: Some(journal.clone()),
        ..CampaignConfig::default()
    };
    let report = run_campaign(&jobs, &cfg).expect("campaign");
    assert!(report.failures().is_empty());
    journal
}

#[test]
fn history_reproduces_the_validated_transition_tape() {
    let journal = campaign_journal("history.jsonl", 9000..9002);
    let scan = scan_journal(&journal).expect("scan");
    assert_eq!(scan.torn, 0);
    let id = scan.entries[0].key.id();
    let report = history_report(&scan, &id).expect("history");
    assert!(report.contains("matches journal"), "{report}");
    // history_report already cross-checks the tape with
    // check_transition_tape; a run that acquires the link has at least
    // the Acquiring -> Steady edge.
    assert!(report.contains("acquiring"), "{report}");
    assert!(report.contains("cause=established"), "{report}");
    // Unknown and ambiguous resources error instead of panicking.
    assert!(history_report(&scan, "no-such-cell").is_err());
}

#[test]
fn self_replay_diff_of_a_fresh_journal_is_all_identical() {
    let journal = campaign_journal("self-replay.jsonl", 9100..9102);
    let scan = scan_journal(&journal).expect("scan");
    let report = self_replay_diff(&scan);
    assert!(report.all_identical(), "{}", report.render());
}

#[test]
fn diff_tolerates_torn_lines_and_legacy_four_segment_ids() {
    let journal = campaign_journal("diff-a.jsonl", 9200..9202);
    let text = std::fs::read_to_string(&journal).expect("journal text");
    let lines: Vec<String> = text.lines().map(str::to_string).collect();

    // Side B: same first cell but rewritten as a *legacy* line (no
    // impairment field, as written before the impairment layer), second
    // cell's digest perturbed, plus a torn trailing line.
    let legacy = lines[0].replace(",\"impairment\":\"none\"", "");
    assert!(!legacy.contains("impairment"), "{legacy}");
    assert!(JournalEntry::parse(&legacy).is_some(), "legacy line parses");
    let perturbed = {
        let mut e = JournalEntry::parse(&lines[1]).expect("line parses");
        e.digest ^= 1;
        e.to_json()
    };
    let b = tmp("diff-b.jsonl");
    std::fs::write(
        &b,
        format!("{legacy}\n{perturbed}\nnot json at all\n{{\"scenario\":\"torn"),
    )
    .expect("write b");

    let scan_a = scan_journal(&journal).expect("scan a");
    let scan_b = scan_journal(&b).expect("scan b");
    assert_eq!(scan_b.torn, 2);
    // No replay localization here: the perturbed digest belongs to the
    // same replayable cell, and localization would find the replays
    // bit-identical (the divergence is in the recording, not the cell).
    let report = diff_journals(&scan_a, &scan_b, false);
    assert!(!report.all_identical());
    let divergent: Vec<_> = report
        .rows
        .iter()
        .filter(|(_, d)| !matches!(d, CellDiff::Identical))
        .collect();
    assert_eq!(divergent.len(), 1, "{}", report.render());
    assert!(matches!(divergent[0].1, CellDiff::DivergentDigest { .. }));
    // The legacy line deduped onto the modern 4-segment id: cell 0 is
    // identical, not missing.
    assert!(report
        .rows
        .iter()
        .any(|(id, d)| id == &scan_a.entries[0].key.id() && *d == CellDiff::Identical));

    // Torn-only journals diff without panicking.
    let torn_only = tmp("torn-only.jsonl");
    std::fs::write(&torn_only, "garbage\n{\"scenario\":\"half").expect("write torn");
    let scan_t = scan_journal(&torn_only).expect("scan torn");
    let report = diff_journals(&scan_a, &scan_t, true);
    assert!(report.rows.iter().all(|(_, d)| *d == CellDiff::OnlyInA));
}

/// Runs the `mmwave-admin` binary; returns its exit status and stderr.
fn admin(args: &[&std::ffi::OsStr]) -> (std::process::ExitStatus, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mmwave-admin"))
        .args(args)
        .output()
        .expect("run mmwave-admin");
    (
        out.status,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn two_journal_diff_refuses_a_side_with_no_entries() {
    let journal = campaign_journal("diff-sides.jsonl", 9250..9251);
    let missing = tmp("no-such-journal.jsonl");
    let _ = std::fs::remove_file(&missing);
    let torn_only = tmp("diff-sides-torn.jsonl");
    std::fs::write(&torn_only, "garbage\n").expect("write torn");
    for empty in [&missing, &torn_only] {
        let err = scan_diff_side(empty).err().expect("no entries is an error");
        assert!(err.contains(&empty.display().to_string()), "{err}");
        for (a, b) in [(&journal, empty), (empty, &journal), (empty, empty)] {
            let (status, stderr) = admin(&["diff".as_ref(), a.as_os_str(), b.as_os_str()]);
            assert_eq!(status.code(), Some(1), "{stderr}");
            assert!(stderr.contains(&empty.display().to_string()), "{stderr}");
        }
    }
    // An existing, identical pair still passes.
    assert_eq!(scan_diff_side(&journal).expect("scan").entries.len(), 1);
    let (status, stderr) = admin(&["diff".as_ref(), journal.as_os_str(), journal.as_os_str()]);
    assert!(status.success(), "{stderr}");
}

#[test]
fn fleet_member_and_aggregate_lines_classify_correctly() {
    let journal = tmp("fleet.jsonl");
    let _ = std::fs::remove_file(&journal);
    let mut cfg = FleetConfig::new("static-walker", "single-beam-reactive", 2, 77);
    cfg.threads = 1;
    cfg.shards = 1;
    cfg.journal = Some(journal.clone());
    let report = run_fleet(&cfg).expect("fleet");
    assert_eq!(report.outcomes.len(), 2);

    let scan = scan_journal(&journal).expect("scan");
    let status = status_report(&scan);
    assert!(
        status.contains("0 single-link, 1 fleet aggregates, 2 fleet members"),
        "{status}"
    );
    assert!(
        status.contains("fleet:static-walker:2: 2 members journaled (2 ok), aggregate present"),
        "{status}"
    );

    // A member's tape replays through the fleet machinery; the
    // scenario-field shorthand resolves because it is unambiguous.
    let member = history_report(&scan, "fleet:static-walker:2:ue0").expect("member history");
    assert!(member.contains("matches journal"), "{member}");
    // The aggregate has no single tape and says so.
    let aggregate = history_report(&scan, "fleet:static-walker:2");
    assert!(aggregate.is_err());
    assert!(aggregate.unwrap_err().contains("fleet aggregate"));

    // A member traces as its single-link cell and reproduces its journaled
    // digest; the aggregate has no single trace either.
    let trace = trace_report(&scan, "fleet:static-walker:2:ue1", TraceFormat::Summary, 1)
        .expect("member trace");
    assert!(
        matches!(trace.verdict, Verdict::Reproduced(_)),
        "{:?}\n{}",
        trace.verdict,
        trace.text
    );
    assert!(trace.text.contains("(reproduced)"), "{}", trace.text);
    let aggregate = trace_report(&scan, "fleet:static-walker:2", TraceFormat::Summary, 1);
    assert!(aggregate.is_err_and(|e| e.contains("fleet aggregate")));

    // Self-replay over members *and* the aggregate line is identical.
    let report = self_replay_diff(&scan);
    assert!(report.all_identical(), "{}", report.render());
}

#[test]
fn trace_reports_a_flipped_digest_as_a_divergence() {
    let journal = campaign_journal("trace.jsonl", 9500..9501);
    let scan = scan_journal(&journal).expect("scan");
    let id = scan.entries[0].key.id();
    let clean = trace_report(&scan, &id, TraceFormat::Csv, 10).expect("trace");
    assert!(matches!(clean.verdict, Verdict::Reproduced(_)));
    assert!(clean
        .text
        .starts_with("slot,t_s,snr_db,blockage_db,probing,outage\n"));

    let mut flipped = scan.entries[0].clone();
    flipped.digest ^= 1;
    let copy = JournalScan {
        entries: vec![flipped.clone()],
        torn: 0,
    };
    let report = trace_report(&copy, &id, TraceFormat::Summary, 1).expect("trace");
    assert_eq!(report.verdict, Verdict::Digest(flipped.digest ^ 1));
    assert!(report.text.contains("(DIVERGED)"), "{}", report.text);
}

#[test]
fn replay_selection_narrows_to_one_cell_or_to_failures() {
    let journal = campaign_journal("select.jsonl", 9600..9603);
    let mut scan = scan_journal(&journal).expect("scan");
    let id = scan.entries[1].key.id();

    // One cell, written by a build with other features: one row, one note.
    scan.entries[1].features = "telemetry,from-elsewhere".to_string();
    let one = select_cells(&scan, Some(&id), false).expect("cell filter");
    let report = self_replay_diff(&one);
    assert_eq!(report.rows.len(), 1, "{}", report.render());
    assert_eq!(report.rows[0], (id.clone(), CellDiff::Identical));
    assert!(
        report
            .render()
            .contains("journal features [telemetry,from-elsewhere] on 1 cell(s) differ"),
        "{}",
        report.render()
    );
    assert!(select_cells(&scan, Some("no-such-cell"), false).is_err());
    // A missing journal scans empty; replaying it is an error, not a pass.
    let missing = scan_journal(&tmp("no-such-journal.jsonl")).expect("scan");
    assert!(select_cells(&missing, None, false).is_err());

    // Failures only: an all-ok journal leaves nothing; a superseding
    // failure line is the one kept.
    assert!(select_cells(&scan, None, true).is_err());
    let mut failed = scan.entries[2].clone();
    failed.status = "timeout".to_string();
    scan.entries.push(failed.clone());
    let failures = select_cells(&scan, None, true).expect("failures");
    assert_eq!(failures.entries.len(), 1);
    assert!(failures.entries.iter().all(|e| e.status != "ok"));
    assert_eq!(failures.entries[0].key.id(), failed.key.id());
}

#[test]
fn metrics_snapshots_merge_and_reexport() {
    let journal = tmp("metrics-journal.jsonl");
    let snapshot = tmp("metrics.jsonl");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&snapshot);
    let jobs: Vec<Job> = (9300..9302u64)
        .map(|s| {
            Job::from_spec(&ScenarioSpec::single(
                WorldSpec::MobileBlockage,
                "mmreliable",
                s,
            ))
            .expect("registry job")
        })
        .collect();
    let cfg = CampaignConfig {
        threads: 1,
        journal: Some(journal),
        metrics: Some(snapshot.clone()),
        ..CampaignConfig::default()
    };
    run_campaign(&jobs, &cfg).expect("campaign");

    // Merging the snapshot with itself doubles counters (adds) but keeps
    // gauges (last write wins) — the documented re-merge semantics.
    let once = merge_snapshots(&[&snapshot]).expect("merge once");
    let twice = merge_snapshots(&[&snapshot, &snapshot]).expect("merge twice");
    let cells = once
        .find_counter("campaign", "cells")
        .map(|id| once.counter_value(id))
        .expect("campaign cells counter");
    assert_eq!(cells, 2);
    let cells2 = twice
        .find_counter("campaign", "cells")
        .map(|id| twice.counter_value(id))
        .expect("campaign cells counter");
    assert_eq!(cells2, 4);

    let prom = once.prometheus_text();
    assert!(prom.contains("# TYPE mmwave_cells counter"), "{prom}");
    assert!(prom.contains("resource=\"campaign\""), "{prom}");
    // Re-exported JSONL re-absorbs losslessly.
    let reexport = once.snapshot_jsonl();
    let mut again = mmwave_telemetry::MetricsRegistry::new();
    for line in &reexport {
        mmwave_telemetry::validate_json_line(line).expect("strict JSON");
        again.absorb_line(line).expect("reabsorb");
    }
    assert_eq!(again.snapshot_jsonl(), reexport);
}

#[test]
fn lines_this_binary_cannot_rebuild_are_skipped_not_divergent() {
    let journal = campaign_journal("forward-compat.jsonl", 9400..9401);
    let mut scan = scan_journal(&journal).expect("scan");
    let real = scan.entries[0].clone();
    // One line per reason a binary cannot rebuild a journal line.
    let mut unbuildable = Vec::new();
    for scenario in [
        "spec:v2:custom;room=tardis",
        "fleet:weird:form:x:y",
        "fleet:no-such-scene:8",
        "fleet:static-walker:8:ue9",
    ] {
        let mut e = real.clone();
        e.key.scenario = scenario.to_string();
        unbuildable.push(e);
    }
    let mut e = real.clone();
    e.key.impairment_spec = "pn=bogus".to_string();
    unbuildable.push(e);
    scan.entries.extend(unbuildable.iter().cloned());

    let report = self_replay_diff(&scan);
    assert!(report.all_identical(), "{}", report.render());
    let skipped = report
        .rows
        .iter()
        .filter(|(_, d)| matches!(d, CellDiff::Skipped(_)))
        .count();
    assert_eq!(skipped, unbuildable.len(), "{}", report.render());
    assert!(report
        .rows
        .iter()
        .any(|(id, d)| id == &real.key.id() && *d == CellDiff::Identical));
    for e in &unbuildable {
        assert!(journal_note(e).is_some(), "{}", e.key.id());
    }
}
