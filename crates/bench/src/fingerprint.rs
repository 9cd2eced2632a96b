//! Bitwise fingerprints of fixed-seed runs — the refactor guardrail.
//!
//! One seeded `static_walker` run per strategy is hashed (FNV-1a) over
//! every sample's `(t_s, dur_s, snr_db)` bit pattern and probing flag plus
//! the probe counters. Two builds with the same fingerprints produce
//! bit-identical `RunResult`s. The `fingerprint` bin prints them and
//! `tests/fingerprint.rs` pins them; DESIGN.md §8 records why a pinned
//! value last moved.

use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmwave_baselines::single_reactive::ReactiveConfig;
use mmwave_baselines::strategy::{BeamStrategy, MmReliableStrategy};
use mmwave_baselines::SingleBeamReactive;
use mmwave_sim::scenario;
use mmwave_sim::SimFrontEnd;

/// Strategies covered, in print order.
pub const STRATEGIES: [&str; 2] = ["single-beam reactive", "mmReliable"];

/// One strategy's fingerprinted run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Strategy name, one of [`STRATEGIES`].
    pub strategy: &'static str,
    /// Samples in the run.
    pub samples: usize,
    /// FNV-1a hash of the run's bit patterns.
    pub hash: u64,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100000001b3);
    }
}

/// Runs `strategy` (one of [`STRATEGIES`]) on `static_walker` with seed 42
/// and hashes the result.
pub fn fingerprint(strategy: &'static str) -> Fingerprint {
    let mut s: Box<dyn BeamStrategy> = match strategy {
        "single-beam reactive" => Box::new(SingleBeamReactive::new(ReactiveConfig::default())),
        _ => Box::new(MmReliableStrategy::new(MmReliableController::new(
            MmReliableConfig::paper_default(),
        ))),
    };
    let sc = scenario::static_walker();
    let mut sim = sc.simulator(42);
    let r = sim.run_with_warmup(
        s.as_mut(),
        sc.duration_s,
        sc.tick_period_s,
        sc.name,
        sc.warmup_s,
    );
    let mut h = 0xcbf29ce484222325u64;
    for smp in &r.samples {
        fnv1a(&mut h, &smp.t_s.to_bits().to_le_bytes());
        fnv1a(&mut h, &smp.dur_s.to_bits().to_le_bytes());
        fnv1a(&mut h, &smp.snr_db.to_bits().to_le_bytes());
        fnv1a(&mut h, &[smp.probing as u8]);
    }
    fnv1a(&mut h, &(r.probes as u64).to_le_bytes());
    fnv1a(&mut h, &r.probe_airtime_s.to_bits().to_le_bytes());
    Fingerprint {
        strategy,
        samples: r.samples.len(),
        hash: h,
    }
}
