//! Fuzzer acceptance: a small all-oracles-green run, and the planted
//! wedge-bug loop — the deliberately-broken oracle catches a failure,
//! shrinks it, and the shrunk counterexample's journal line replays
//! bit-identically.

use mmwave_sim::campaign::{replay_cell, JournalEntry};
use mmwave_sim::fuzz::{check_spec, run_fuzz, OracleOptions};
use mmwave_sim::{ScenarioSpec, WorldSpec};

#[test]
fn small_fuzz_run_is_all_oracles_green() {
    let report = run_fuzz("ci-smoke-small", 4, &OracleOptions::default());
    assert_eq!(report.cases_run, 4);
    assert_eq!(report.corpus.len(), 4);
    if let Some(cx) = &report.counterexample {
        panic!(
            "oracle {} fired on {}: {}",
            cx.failure.oracle,
            cx.spec.spec_string(),
            cx.failure.detail
        );
    }
}

#[test]
fn curated_clean_spec_passes_all_oracles() {
    let spec = ScenarioSpec::single(WorldSpec::StaticWalker, "mmreliable", 11);
    let (digest, reliability) = check_spec(&spec, &OracleOptions::default())
        .unwrap_or_else(|f| panic!("oracle {} fired: {}", f.oracle, f.detail));
    assert_ne!(digest, 0);
    assert!((0.0..=1.0).contains(&reliability));
}

#[test]
fn injected_wedge_bug_is_caught_shrunk_and_replays_bit_identically() {
    let opts = OracleOptions {
        inject_wedge: true,
        fleet_invariance: false,
    };
    let report = run_fuzz("wedge-acceptance", 8, &opts);
    let cx = report
        .counterexample
        .as_ref()
        .expect("the planted wedge bug must produce a counterexample");
    assert_eq!(cx.failure.oracle, "lifecycle-wedge");

    // Shrinking only simplifies: the minimal spec is no larger than the
    // original, still valid, and still fails the same oracle.
    assert!(cx.spec.spec_string().len() <= cx.original.spec_string().len());
    cx.spec.validate().expect("shrunk spec validates");
    let refail = check_spec(&cx.spec, &opts).expect_err("shrunk spec still fails");
    assert_eq!(refail.oracle, "lifecycle-wedge");

    // The counterexample journal line is a first-class journal entry:
    // parses back losslessly and carries the spec as its cell identity.
    let line = cx.entry.to_json();
    let parsed = JournalEntry::parse(&line).expect("counterexample line parses");
    assert_eq!(parsed.key, cx.entry.key);
    assert_eq!(parsed.digest, cx.entry.digest);
    assert_eq!(parsed.status, "ok", "the wedged run itself completed");
    assert!(parsed.message.contains("fuzz:lifecycle-wedge"));
    assert_eq!(
        ScenarioSpec::parse_spec(&parsed.key.id()).expect("cell id is a spec"),
        cx.spec
    );

    // And it replays bit-identically: the same digest the oracle run saw.
    let (_, digest) = replay_cell(&parsed).expect("counterexample replays");
    assert_eq!(
        digest, parsed.digest,
        "replay of the counterexample must be bit-identical"
    );
}
