//! Fleet-cell throughput benchmark: UE-slots simulated per wall-clock
//! second for a shared-environment multi-UE cell.
//!
//! Runs a 64-UE `static-walker` fleet under the single-beam reactive
//! baseline twice — once on 1 worker / 1 shard and once on every
//! available core — asserts the two fleet digests are bit-identical
//! (parallelism is a batching knob, never a results knob), and writes the
//! parallel run's throughput, per-UE handler-pass latency percentiles,
//! and shared-environment cache counters to `results/BENCH_fleet.json`.
//!
//! Usage:
//!
//! ```text
//! fleet                      # full run: 64 UEs
//! fleet --test               # CI smoke mode: same 64-UE fleet, same artifact
//! fleet --journal <path>     # also write the fleet journal (replayable
//!                            # per member with `mmwave-admin diff --replay`)
//! ```
//!
//! Build with `--features perf-counters` to see the shared-scene cache
//! amortization (images built once per cell vs. traces served per UE).

use mmwave_sim::fleet::{run_fleet, FleetConfig, FleetReport};

/// Fleet size: large enough that per-pass scheduling overhead is
/// amortized and the cache amortization is visible (64 UEs share one
/// image set), small enough for a CI smoke job.
const N_UES: u32 = 64;

/// Throughput floor asserted by this binary (and by the `fleet-smoke` CI
/// job that runs it): the 64-UE cell must clear 10⁴ executed UE-slots
/// per wall second even on a small runner.
const MIN_UE_SLOTS_PER_S: f64 = 1e4;

fn run(threads: usize, shards: usize, journal: Option<&str>, metrics: Option<&str>) -> FleetReport {
    let mut cfg = FleetConfig {
        threads,
        shards,
        ..FleetConfig::new("static-walker", "single-beam-reactive", N_UES, 42)
    };
    cfg.journal = journal.map(std::path::PathBuf::from);
    cfg.metrics = metrics.map(std::path::PathBuf::from);
    run_fleet(&cfg).expect("fleet runs")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--test" || a == "--smoke");
    let journal = args
        .iter()
        .position(|a| a == "--journal")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let metrics = args
        .iter()
        .position(|a| a == "--metrics")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let mode = if smoke { "smoke" } else { "full" };
    let avail = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Reference: strictly sequential. Its digest is the ground truth the
    // parallel run must reproduce bit-for-bit. The journal (if any) is
    // written by this run; re-running against an existing journal resumes
    // instead of recomputing, so point `--journal` at a fresh path.
    let seq = run(1, 1, journal, None);
    let par = run(avail, avail, None, metrics);
    assert_eq!(
        seq.digest, par.digest,
        "fleet digest must be invariant to worker/shard count"
    );
    assert_eq!(seq.outcomes.len(), par.outcomes.len());

    let hist = &par.pass_latency;
    println!(
        "fleet {} ({} UEs, {} workers): {:.0} UE-slots/s (seq {:.0}), digest {:016x}",
        par.scenario,
        N_UES,
        avail,
        par.ue_slots_per_s(),
        seq.ue_slots_per_s(),
        par.digest
    );
    println!(
        "per-UE pass latency: p50 {} ns, p90 {} ns, p99 {} ns, max {} ns over {} passes",
        hist.percentile_ns(50.0),
        hist.percentile_ns(90.0),
        hist.percentile_ns(99.0),
        hist.max_ns(),
        hist.count()
    );
    println!(
        "shared-scene cache: {} images built, {} traces served, {} mirror ops saved",
        par.cache.images_built, par.cache.traces_served, par.cache.mirror_ops_saved
    );

    let best = par.ue_slots_per_s().max(seq.ue_slots_per_s());
    assert!(
        best > MIN_UE_SLOTS_PER_S,
        "fleet throughput {best:.0} UE-slots/s below the 1e4 floor"
    );

    let json = format!(
        "{{\n  \"bench\": \"fleet\",\n  \"scenario\": \"{}\",\n  \"strategy\": \"{}\",\n  \"mode\": \"{}\",\n  \"profile\": \"{}\",\n  \"n_ues\": {},\n  \"workers\": {},\n  \"digest\": \"{:016x}\",\n  \"digest_matches_sequential\": true,\n  \"ue_slots_per_sec\": {:.0},\n  \"ue_slots_per_sec_sequential\": {:.0},\n  \"data_slots\": {},\n  \"passes\": {},\n  \"mean_reliability\": {:.6},\n  \"pass_latency_ns\": {{\n    \"p50\": {},\n    \"p90\": {},\n    \"p99\": {},\n    \"max\": {},\n    \"count\": {}\n  }},\n  \"shared_scene_cache\": {{\n    \"images_built\": {},\n    \"traces_served\": {},\n    \"mirror_ops_saved\": {}\n  }}\n}}\n",
        par.scenario,
        par.strategy,
        mode,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        N_UES,
        avail,
        par.digest,
        par.ue_slots_per_s(),
        seq.ue_slots_per_s(),
        par.data_slots,
        par.passes,
        par.mean_reliability(),
        hist.percentile_ns(50.0),
        hist.percentile_ns(90.0),
        hist.percentile_ns(99.0),
        hist.max_ns(),
        hist.count(),
        par.cache.images_built,
        par.cache.traces_served,
        par.cache.mirror_ops_saved
    );
    mmwave_bench::figures::write_csv("BENCH_fleet.json", &json).expect("write artifact");
}
