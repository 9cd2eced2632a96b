//! Hot-path throughput benchmark: slots simulated per wall-clock second.
//!
//! Replays the `static_walker` scenario (the paper's Fig. 16 workload)
//! under the single-beam reactive baseline and the full mmReliable stack,
//! measures simulated slots per second, and compares against the recorded
//! pre-refactor baseline (the allocating `channel_at`-per-consumer
//! dataflow, measured on the same scenario before the `SlotWorkspace` /
//! `ChannelSnapshot` refactor landed). Writes the comparison to
//! `results/BENCH_hotpath.json`.
//!
//! Usage:
//!
//! ```text
//! hotpath            # full run: best of 5 repetitions per strategy
//! hotpath --test     # CI smoke mode: 1 repetition, same JSON artifact
//! ```
//!
//! Build with `--features perf-counters` to include snapshot
//! rebuild/reuse counters in the artifact.

use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmwave_baselines::single_reactive::ReactiveConfig;
use mmwave_baselines::strategy::{BeamStrategy, MmReliableStrategy};
use mmwave_baselines::SingleBeamReactive;
use mmwave_sim::{scenario, RunCounters};
use std::time::Instant;

/// Pre-refactor slots/sec on `static_walker`, release build, measured on
/// the commit immediately before the zero-allocation hot path landed
/// (per-slot `channel_at` at every consumer + allocating csi/steering
/// kernels). Before/after were measured contemporaneously — interleaved
/// best-of rounds of the old and new binaries on the same single-core
/// container — so both sides see the same thermal/throttling state.
///
/// The two workloads stress different layers: the reactive baseline is
/// data-plane bound (the per-slot snapshot/CSI path this refactor
/// targets, ~6x), while mmReliable's wall time was then dominated by
/// super-resolution grid-search trig inside its maintenance ticks. That
/// refactor kept the grid search bit-identical, so mmReliable's speedup
/// came only from the shared slot path, scratch reuse, and cross-crate
/// LTO (~1.4x). The grid search has since been restructured around a
/// τ₀-invariant Gram (`mmreliable::superres`): results moved in the last
/// ulps only, under a reviewed fingerprint re-pin (DESIGN.md §8), so the
/// mmReliable baseline below predates that change.
const BASELINE_SLOTS_PER_SEC: [(&str, f64); 2] = [
    ("single-beam reactive", 110_716.0),
    ("mmReliable", 18_132.0),
];

struct Measurement {
    name: &'static str,
    slots: usize,
    best_slots_per_sec: f64,
    baseline_slots_per_sec: f64,
    counters: RunCounters,
}

fn make_strategy(name: &str) -> Box<dyn BeamStrategy> {
    match name {
        "single-beam reactive" => Box::new(SingleBeamReactive::new(ReactiveConfig::default())),
        "mmReliable" => Box::new(MmReliableStrategy::new(MmReliableController::new(
            MmReliableConfig::paper_default(),
        ))),
        other => panic!("unknown strategy {other}"),
    }
}

fn measure(name: &'static str, baseline: f64, reps: usize) -> Measurement {
    let mut best = 0.0f64;
    let mut slots = 0;
    let mut counters = RunCounters::default();
    for _ in 0..reps {
        let sc = scenario::static_walker();
        let mut sim = sc.simulator(42);
        let mut s = make_strategy(name);
        let t0 = Instant::now();
        let r = sim.run_with_warmup(
            s.as_mut(),
            sc.duration_s,
            sc.tick_period_s,
            sc.name,
            sc.warmup_s,
        );
        let dt = t0.elapsed().as_secs_f64();
        slots = r.samples.len();
        counters = r.counters;
        best = best.max(slots as f64 / dt);
    }
    Measurement {
        name,
        slots,
        best_slots_per_sec: best,
        baseline_slots_per_sec: baseline,
        counters,
    }
}

fn json_entry(m: &Measurement) -> String {
    let speedup = m.best_slots_per_sec / m.baseline_slots_per_sec;
    let counters = if m.counters == RunCounters::default() {
        String::new()
    } else {
        format!(
            r#",
      "counters": {{
        "data_slots": {},
        "ticks": {},
        "snapshot_rebuilds": {},
        "snapshot_reuses": {},
        "snr_evals": {}
      }}"#,
            m.counters.data_slots,
            m.counters.ticks,
            m.counters.snapshot_rebuilds,
            m.counters.snapshot_reuses,
            m.counters.snr_evals
        )
    };
    format!(
        r#"    {{
      "strategy": "{}",
      "slots": {},
      "slots_per_sec_before": {:.0},
      "slots_per_sec_after": {:.0},
      "speedup": {:.2}{}
    }}"#,
        m.name, m.slots, m.baseline_slots_per_sec, m.best_slots_per_sec, speedup, counters
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test" || a == "--smoke");
    let reps = if smoke { 1 } else { 5 };
    let mode = if smoke { "smoke" } else { "full" };

    let mut entries = Vec::new();
    for (name, baseline) in BASELINE_SLOTS_PER_SEC {
        let m = measure(name, baseline, reps);
        println!(
            "{}: {} slots, {:.0} slots/sec (before: {:.0}, speedup {:.2}x)",
            m.name,
            m.slots,
            m.best_slots_per_sec,
            m.baseline_slots_per_sec,
            m.best_slots_per_sec / m.baseline_slots_per_sec
        );
        entries.push(json_entry(&m));
    }

    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"scenario\": \"static_walker\",\n  \"mode\": \"{}\",\n  \"profile\": \"{}\",\n  \"notes\": \"before/after measured contemporaneously (interleaved best-of rounds on one machine); reactive is data-plane (per-slot) bound, mmReliable is tick-compute (super-resolution grid-search trig) bound\",\n  \"results\": [\n{}\n  ]\n}}\n",
        mode,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        entries.join(",\n")
    );
    mmwave_bench::figures::write_csv("BENCH_hotpath.json", &json).expect("write artifact");
}
