//! Pins the fixed-seed run fingerprints (the behaviour contract).
//!
//! Any numeric drift in either strategy, or in the front-end stack,
//! fails here. An intentional change re-pins the value in the same
//! commit, with a note in DESIGN.md §8 saying why it moved and which
//! EXPERIMENTS.md rows were re-checked.

use mmwave_bench::fingerprint::{fingerprint, stack_fingerprint};

#[test]
fn reactive_fingerprint_is_pinned() {
    let f = fingerprint("single-beam reactive");
    assert_eq!(
        format!("{:016x}", f.hash),
        "0eab35741526069d",
        "{} samples",
        f.samples
    );
}

#[test]
fn mmreliable_fingerprint_is_pinned() {
    let f = fingerprint("mmReliable");
    assert_eq!(
        format!("{:016x}", f.hash),
        "5413902bd379f885",
        "{} samples",
        f.samples
    );
}

#[test]
fn front_end_stack_fingerprint_is_pinned() {
    // Reactive through gain drift and element failures over mild
    // impairments: the drift and PA kernels run on every slot here, and
    // neither strategy digest above reaches them.
    let f = stack_fingerprint();
    assert_eq!(
        format!("{:016x}", f.hash),
        "381db57c482d4333",
        "{} samples",
        f.samples
    );
}
