//! Prints a bitwise fingerprint of fixed-seed runs — a refactor guardrail.
//!
//! Hashes every sample's `(t_s, dur_s, snr_db)` bit pattern plus the probe
//! counters for one seeded run per strategy on `static_walker`
//! ([`mmwave_bench::fingerprint`]). Two builds that print the same
//! fingerprints produce bit-identical `RunResult`s; `tests/fingerprint.rs`
//! pins the current values.

use mmwave_bench::fingerprint::{fingerprint, STRATEGIES};

fn main() {
    for name in STRATEGIES {
        let f = fingerprint(name);
        println!("{name}: {} samples, fingerprint {:016x}", f.samples, f.hash);
    }
}
