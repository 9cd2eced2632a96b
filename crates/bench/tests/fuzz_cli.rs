//! The `fuzz` binary appends its counterexample to `--journal` as a whole
//! line, even when the journal ends in a torn line a killed writer left
//! behind: the line after the torn tail must parse, or `load_journal` and
//! `mmwave-admin` lose the counterexample.

use mmwave_sim::campaign::JournalEntry;
use std::process::Command;

#[test]
fn counterexample_lands_whole_after_a_torn_journal_tail() {
    let journal =
        std::env::temp_dir().join(format!("mmwave-fuzz-torn-{}.jsonl", std::process::id()));
    std::fs::write(&journal, r#"{"scenario":"torn-partial-en"#).expect("seed torn journal");
    let out = Command::new(env!("CARGO_BIN_EXE_fuzz"))
        .args([
            "--cases",
            "8",
            "--seed",
            "wedge-ci",
            "--inject-wedge",
            "--journal",
        ])
        .arg(&journal)
        .output()
        .expect("fuzz runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "the planted wedge must fail: {stdout}"
    );
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let last = text.lines().last().expect("journal has a line");
    let entry =
        JournalEntry::parse(last).unwrap_or_else(|| panic!("last journal line must parse: {last}"));
    assert!(
        entry.message.starts_with("fuzz:lifecycle-wedge"),
        "{}",
        entry.message
    );
    assert!(
        stdout.contains("mmwave-admin diff"),
        "the hint names the replay command: {stdout}"
    );
    let _ = std::fs::remove_file(&journal);
}
