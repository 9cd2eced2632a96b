//! Determinism: every experiment in the workspace is exactly reproducible
//! from its seed — the property the whole evaluation pipeline rests on.

use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmwave_baselines::single_reactive::ReactiveConfig;
use mmwave_baselines::strategy::MmReliableStrategy;
use mmwave_baselines::SingleBeamReactive;
use mmwave_channel::sampling::sample_indoor;
use mmwave_dsp::rng::Rng64;
use mmwave_sim::scenario;
use mmwave_sim::SimFrontEnd;

#[test]
fn identical_seeds_identical_runs() {
    let go = |seed: u64| {
        let sc = scenario::mobile_blockage(seed);
        let mut sim = sc.simulator(seed);
        let mut s =
            MmReliableStrategy::new(MmReliableController::new(MmReliableConfig::paper_default()));
        let r = sim.run_with_warmup(&mut s, 0.3, sc.tick_period_s, sc.name, sc.warmup_s);
        (
            r.reliability().to_bits(),
            r.mean_snr_db().to_bits(),
            r.probes,
            r.samples.len(),
        )
    };
    assert_eq!(go(5), go(5));
}

#[test]
fn different_seeds_differ() {
    let go = |seed: u64| {
        let sc = scenario::mobile_blockage(seed);
        let mut sim = sc.simulator(seed);
        let mut s = SingleBeamReactive::new(ReactiveConfig::default());
        let r = sim.run_with_warmup(&mut s, 0.4, sc.tick_period_s, sc.name, sc.warmup_s);
        r.mean_snr_db()
    };
    assert_ne!(go(100), go(101));
}

#[test]
fn measurement_study_is_seeded() {
    let a = sample_indoor(&mut Rng64::seed(3), 100);
    let b = sample_indoor(&mut Rng64::seed(3), 100);
    assert_eq!(a, b);
}

#[test]
fn strategy_state_does_not_leak_between_runs() {
    // Two fresh strategies on the same scenario must behave identically —
    // i.e. no hidden global state anywhere in the stack.
    let sc = scenario::static_walker();
    let go = || {
        let mut sim = sc.simulator(77);
        let mut s =
            MmReliableStrategy::new(MmReliableController::new(MmReliableConfig::paper_default()));
        let r = sim.run_with_warmup(&mut s, 0.3, sc.tick_period_s, sc.name, sc.warmup_s);
        (r.reliability().to_bits(), r.probes)
    };
    assert_eq!(go(), go());
}
