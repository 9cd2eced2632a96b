//! Journal crash-consistency: a campaign killed mid-flight — including a
//! torn trailing write — must resume into exactly the missing cells, and
//! the union of the two passes must be complete, deduplicated, and
//! bit-identical to an uninterrupted run.

use mmwave_baselines::single_reactive::{ReactiveConfig, SingleBeamReactive};
use mmwave_sim::campaign::{
    closure_jobs, load_journal, run_campaign, CampaignConfig, CampaignReport, CellStatus, Job,
};
use mmwave_sim::scenario;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;

fn jobs(n: usize, base_seed: u64) -> Vec<Job> {
    closure_jobs(
        n,
        base_seed,
        "mobile-blockage",
        "single-beam-reactive",
        scenario::mobile_blockage,
        || Box::new(SingleBeamReactive::new(ReactiveConfig::default())),
    )
}

/// Cells the campaign ran to completion itself (resumed cells excluded).
fn completed(report: &CampaignReport) -> usize {
    report
        .outcomes
        .iter()
        .filter(|o| matches!(o.status, CellStatus::Completed { .. }))
        .count()
}

fn temp_journal(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "mmwave-campaign-{tag}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn killed_campaign_resumes_without_loss_or_duplication() {
    let journal = temp_journal("resume");
    let all = jobs(6, 300);
    let cfg = CampaignConfig {
        threads: 2,
        journal: Some(journal.clone()),
        ..CampaignConfig::default()
    };

    // Phase 1: the process "dies" after the first three cells...
    let report1 = run_campaign(&all[..3], &cfg).expect("phase 1");
    assert_eq!(completed(&report1), 3);
    // ...mid-write: a torn half-line trails the journal.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .expect("journal exists");
        f.write_all(b"{\"scenario\":\"mobile-blo").expect("append");
    }

    // Phase 2: rerun the FULL campaign against the same journal.
    let report2 = run_campaign(&all, &cfg).expect("phase 2");
    assert_eq!(
        report2.resumed_count(),
        3,
        "phase-1 cells must resume, not rerun"
    );
    assert_eq!(
        completed(&report2),
        3,
        "only the missing cells execute in phase 2"
    );

    // Union: every cell exactly once.
    let entries = load_journal(&journal).expect("readable journal");
    assert_eq!(entries.len(), all.len(), "zero lost cells");
    let mut ids: Vec<String> = entries.iter().map(|e| e.key.id()).collect();
    ids.sort();
    let deduped = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), deduped, "zero duplicated cells");
    let mut want: Vec<String> = all.iter().map(|j| j.key.id()).collect();
    want.sort();
    assert_eq!(ids, want, "journal covers exactly the submitted grid");
    assert!(
        entries.iter().all(|e| e.status == "ok"),
        "every cell completed"
    );

    // Bit-identity: the interrupted-and-resumed union matches an
    // uninterrupted journal-less campaign digest for digest.
    let clean = run_campaign(&jobs(6, 300), &CampaignConfig::default()).expect("clean run");
    let clean_digests: HashMap<String, u64> = clean
        .outcomes
        .iter()
        .map(|o| match &o.status {
            CellStatus::Completed { digest, .. } => (o.key.id(), *digest),
            _ => panic!("clean campaign cell {} did not complete", o.key.id()),
        })
        .collect();
    for e in &entries {
        assert_eq!(
            e.digest,
            clean_digests[&e.key.id()],
            "cell {} diverged across kill/resume",
            e.key.id()
        );
    }
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn torn_trailing_line_is_tolerated_and_rewritten_clean() {
    let journal = temp_journal("torn");
    let all = jobs(2, 800);
    let cfg = CampaignConfig {
        threads: 1,
        journal: Some(journal.clone()),
        ..CampaignConfig::default()
    };
    run_campaign(&all[..1], &cfg).expect("seed the journal");
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .expect("journal exists");
        f.write_all(b"{\"scenario\":\"half a lin").expect("append");
    }
    // The loader stops cleanly at the torn tail.
    assert_eq!(load_journal(&journal).expect("load").len(), 1);
    // Completing the campaign rewrites the journal whole: the torn residue
    // is gone and both cells parse.
    run_campaign(&all, &cfg).expect("complete");
    let entries = load_journal(&journal).expect("reload");
    assert_eq!(entries.len(), 2);
    let text = std::fs::read_to_string(&journal).expect("read");
    assert_eq!(
        text.lines().count(),
        2,
        "journal holds exactly one intact line per cell"
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn journaled_failures_are_not_rerun() {
    let journal = temp_journal("failed");
    let mut all = jobs(2, 950);
    // Cell 0 is structurally broken: terminal validation failure.
    all[0] = Job::custom(all[0].key.clone(), |_| {
        Err("deliberately malformed cell".to_string())
    });
    let cfg = CampaignConfig {
        threads: 1,
        journal: Some(journal.clone()),
        ..CampaignConfig::default()
    };
    let report1 = run_campaign(&all, &cfg).expect("first pass");
    assert_eq!(report1.failures().len(), 1);
    // Second pass: the failure is resumed from its journal line — the
    // builder would fail again identically; replay, not rerun, is the tool
    // for investigating it.
    let report2 = run_campaign(&all, &cfg).expect("second pass");
    assert_eq!(
        report2.resumed_count(),
        2,
        "failures resume like completions"
    );
    assert_eq!(completed(&report2), 0, "nothing re-executes");
    let entries = load_journal(&journal).expect("load");
    assert_eq!(entries.len(), 2);
    assert_eq!(
        entries.iter().filter(|e| e.status == "validation").count(),
        1
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn resume_keeps_the_journal_in_file_order() {
    let journal = temp_journal("order");
    let all = jobs(4, 600);
    let cfg = CampaignConfig {
        threads: 1,
        journal: Some(journal.clone()),
        ..CampaignConfig::default()
    };
    run_campaign(&all[..3], &cfg).expect("seed the journal");
    // Reverse the journal so its lines are out of cell-id order.
    let text = std::fs::read_to_string(&journal).expect("read");
    let old: Vec<&str> = text.lines().rev().collect();
    assert_eq!(old.len(), 3);
    std::fs::write(&journal, old.join("\n") + "\n").expect("rewrite");

    let report = run_campaign(&all, &cfg).expect("resume");
    assert_eq!(report.resumed_count(), 3);
    let text = std::fs::read_to_string(&journal).expect("reread");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4);
    assert_eq!(
        lines[..3],
        old[..],
        "old lines keep their file order, byte for byte"
    );
    let new = mmwave_sim::campaign::JournalEntry::parse(lines[3]).expect("new line parses");
    assert_eq!(
        new.key, all[3].key,
        "the resumed run appends its one new cell"
    );
    let _ = std::fs::remove_file(&journal);
}
