//! Zero-allocation guarantee for steady-state fleet passes.
//!
//! Installs [`CountingAllocator`] as this binary's global allocator,
//! builds a single-shard fleet (clean, or mixing fault and impairment
//! lanes), warms every per-lane scratch buffer (sample vectors at their
//! high-water capacity, the handler's intent batch, the strategies'
//! internal caches) with real passes, then drives enough further passes
//! to cover well over 1 000 steady-state UE-slots and asserts the
//! allocator was never called. This extends the DESIGN.md §8 contract
//! from one link to the whole cell: after warm-up, the fleet runs
//! entirely out of preallocated per-lane and per-shard state —
//! `SlotLoop` samples and events, each front-end layer's probe scratch,
//! the `IntentQueue`/`StateHandler` scratch swap, and the fixed-bucket
//! pass-latency histogram.
//!
//! The counter is per thread. The fleet runs with `threads: 1` and the
//! shard is stepped inline, so every lane's work lands on the test's own
//! thread and its counter sees the whole fleet.

use mmwave_channel::SharedSceneCache;
use mmwave_dsp::count_alloc::{allocation_count, CountingAllocator};
use mmwave_sim::campaign::build_scenario;
use mmwave_sim::fleet::{FleetConfig, FleetShard};
use mmwave_sim::{FaultSchedule, ImpairmentConfig, MixGroup};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Builds a single shard of `cfg`, warms it, and asserts that 8 further
/// passes allocate nothing and leave every lane established.
fn assert_steady_passes_do_not_allocate(cfg: &FleetConfig) {
    let sc = build_scenario(&cfg.scenario, cfg.seed).expect("registry scenario");
    let cache = Arc::new(SharedSceneCache::build(&sc.dynamic.scene));
    let ues: Vec<u32> = (0..cfg.n_ues).collect();
    let mut shard = FleetShard::new(cfg, &ues, Some(&cache)).expect("shard builds");

    // Warm-up: 4 passes (100 ms) cover the 60 ms training window plus the
    // first post-establishment pass, so every lane has established,
    // trained its beam, and grown all scratch to steady state (first
    // intents, handler batch swap, transition log, strategy caches).
    for _ in 0..4 {
        assert!(!shard.step_pass(), "run must outlast the warm-up");
    }

    // Steady state: 8 passes × 200 slots per UE per pass, none of which
    // may allocate. The window (100–300 ms) ends before the walker first
    // hits a path (0.25 s + 60 ms start delay), so no lane retrains or
    // transitions mid-measurement.
    let before = allocation_count();
    for _ in 0..8 {
        assert!(!shard.step_pass(), "run must outlast the measurement");
    }
    let delta = allocation_count() - before;
    assert_eq!(
        delta, 0,
        "steady-state fleet passes allocated {delta} times over 8 passes"
    );

    // The passes did real work: every lane is live and established, and
    // the handler saw intents from each.
    let handler = shard.handler();
    for ue in 0..cfg.n_ues {
        let state = handler.state(mmreliable::UeId(ue)).expect("lane exists");
        assert!(state.is_established(), "ue{ue} not established: {state:?}");
        let m = handler.stats(mmreliable::UeId(ue)).expect("lane exists");
        assert!(m.intents > 0, "ue{ue} submitted no intents");
    }
    assert!(shard.pass_latency().count() > 0);
}

#[test]
fn steady_state_fleet_passes_do_not_allocate() {
    // 8 UEs of the static indoor link, one shard, driven inline (no
    // worker threads — sharding lives above this layer).
    assert_steady_passes_do_not_allocate(&FleetConfig {
        threads: 1,
        shards: 1,
        ..FleetConfig::new("static-walker", "single-beam-reactive", 8, 42)
    });
}

#[test]
fn decorated_fleet_passes_do_not_allocate() {
    // Two lanes each of clean, moderate impairments, and an aging array
    // (dead elements plus gain drift) over mild impairments. A lossy
    // group stays out: its fault events grow the event logs by amortised
    // pushes, which is allowed.
    let aging = FaultSchedule {
        seed: 17,
        failed_elements: vec![3, 17, 42],
        gain_drift_db: 1.5,
        gain_drift_period_s: 0.5,
        ..FaultSchedule::none()
    };
    let group = |fault, impairment| MixGroup { fault, impairment };
    assert_steady_passes_do_not_allocate(&FleetConfig {
        threads: 1,
        shards: 1,
        mix: vec![
            group(FaultSchedule::none(), ImpairmentConfig::none()),
            group(FaultSchedule::none(), ImpairmentConfig::moderate(2)),
            group(aging, ImpairmentConfig::mild(4)),
        ],
        ..FleetConfig::new("static-walker", "single-beam-reactive", 6, 42)
    });
}
