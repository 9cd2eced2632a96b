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
        "636133016b9ede92",
        "{} samples",
        f.samples
    );
}

#[test]
fn mmreliable_fingerprint_is_pinned() {
    let f = fingerprint("mmReliable");
    assert_eq!(
        format!("{:016x}", f.hash),
        "7efd71d3fa16c065",
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
        "3c615ef923cd15e8",
        "{} samples",
        f.samples
    );
}
