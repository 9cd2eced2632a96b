//! Bitwise fingerprints of fixed-seed runs — the refactor guardrail.
//!
//! One seeded `static_walker` run per strategy is hashed (FNV-1a) over
//! every sample's `(t_s, dur_s, snr_db)` bit pattern and probing flag plus
//! the probe counters. A third run, [`stack_fingerprint`], takes the
//! single-beam reactive link through the full front-end stack (element
//! failures and gain drift over `ImpairmentConfig::mild`), so the drift
//! and PA kernels are under the same contract. Two builds with the same fingerprints produce
//! bit-identical `RunResult`s. The `fingerprint` bin prints them and
//! `tests/fingerprint.rs` pins them; DESIGN.md §8 records why a pinned
//! value last moved.

use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmwave_baselines::single_reactive::ReactiveConfig;
use mmwave_baselines::strategy::{BeamStrategy, MmReliableStrategy};
use mmwave_baselines::SingleBeamReactive;
use mmwave_sim::{
    front_end_stack, scenario, FaultSchedule, ImpairmentConfig, RunResult, SimFrontEnd,
};

/// Strategies covered, in print order.
pub const STRATEGIES: [&str; 2] = ["single-beam reactive", "mmReliable"];

/// Label of the [`stack_fingerprint`] run.
pub const STACK_RUN: &str = "single-beam reactive, aging over mild";

/// One fingerprinted run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Run label: one of [`STRATEGIES`], or [`STACK_RUN`].
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

fn digest(strategy: &'static str, r: &RunResult) -> Fingerprint {
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

fn run_static_walker<H: SimFrontEnd>(fe: &mut H, strategy: &mut dyn BeamStrategy) -> RunResult {
    let sc = scenario::static_walker();
    fe.run_with_warmup(
        strategy,
        sc.duration_s,
        sc.tick_period_s,
        sc.name,
        sc.warmup_s,
    )
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
    let mut sim = scenario::static_walker().simulator(42);
    digest(strategy, &run_static_walker(&mut sim, s.as_mut()))
}

/// An aging array: elements 3, 17 and 42 dead, every element's gain
/// drifting ±1.5 dB with a 0.5 s period (fault seed 17). The drift hands
/// the impairment layer new weights every slot.
pub fn aging_schedule() -> FaultSchedule {
    FaultSchedule {
        seed: 17,
        failed_elements: vec![3, 17, 42],
        gain_drift_db: 1.5,
        gain_drift_period_s: 0.5,
        ..FaultSchedule::none()
    }
}

/// Runs single-beam reactive on `static_walker` with seed 42 through
/// `front_end_stack(sim, aging, ImpairmentConfig::mild(4))`, `aging`
/// failing elements 3/17/42 and drifting every gain ±1.5 dB with a 0.5 s
/// period (fault seed 17), and hashes the result.
pub fn stack_fingerprint() -> Fingerprint {
    let sim = scenario::static_walker().simulator(42);
    let mut fe = front_end_stack(sim, aging_schedule(), ImpairmentConfig::mild(4))
        .expect("aging over mild is a valid stack");
    let mut s = SingleBeamReactive::new(ReactiveConfig::default());
    digest(STACK_RUN, &run_static_walker(&mut fe, &mut s))
}
