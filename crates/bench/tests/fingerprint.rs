//! Pins the fixed-seed run fingerprints (the behaviour contract).
//!
//! Any numeric drift in either strategy fails here. An intentional change
//! re-pins the value in the same commit, with a note in DESIGN.md §8
//! saying why it moved and which EXPERIMENTS.md rows were re-checked.

use mmwave_bench::fingerprint::fingerprint;

#[test]
fn reactive_fingerprint_is_pinned() {
    let f = fingerprint("single-beam reactive");
    assert_eq!(
        format!("{:016x}", f.hash),
        "38d2b0adb1a6df90",
        "{} samples",
        f.samples
    );
}

#[test]
fn mmreliable_fingerprint_is_pinned() {
    let f = fingerprint("mmReliable");
    assert_eq!(
        format!("{:016x}", f.hash),
        "9958f73b04810188",
        "{} samples",
        f.samples
    );
}
