//! Prints a bitwise fingerprint of fixed-seed runs — a refactor guardrail.
//!
//! Hashes every sample's `(t_s, dur_s, snr_db)` bit pattern plus the probe
//! counters for one seeded run per strategy on `static_walker`, and for
//! one reactive run through the fault-over-impairment front-end stack
//! ([`mmwave_bench::fingerprint`]). Two builds that print the same
//! fingerprints produce bit-identical `RunResult`s; `tests/fingerprint.rs`
//! pins the current values.

use mmwave_bench::fingerprint::{fingerprint, stack_fingerprint, STRATEGIES};

fn main() {
    let runs = STRATEGIES
        .into_iter()
        .map(fingerprint)
        .chain([stack_fingerprint()]);
    for f in runs {
        println!(
            "{}: {} samples, fingerprint {:016x}",
            f.strategy, f.samples, f.hash
        );
    }
}
