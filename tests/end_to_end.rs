//! Cross-crate integration: full beam-management stacks against the
//! simulator, checking the paper's headline orderings hold end-to-end.

use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmwave_array::geometry::ArrayGeometry;
use mmwave_baselines::single_reactive::ReactiveConfig;
use mmwave_baselines::strategy::{BeamStrategy, MmReliableStrategy};
use mmwave_baselines::{OracleMrt, SingleBeamReactive};
use mmwave_channel::channel::UeReceiver;
use mmwave_phy::mcs::McsTable;
use mmwave_sim::metrics::RunResult;
use mmwave_sim::scenario::{self, Scenario};
use mmwave_sim::SimFrontEnd;

fn run(sc: &Scenario, seed: u64, mut strategy: Box<dyn BeamStrategy>) -> RunResult {
    let mut sim = sc.simulator(seed);
    sim.run_with_warmup(
        strategy.as_mut(),
        sc.duration_s,
        sc.tick_period_s,
        sc.name,
        sc.warmup_s,
    )
}

fn mmreliable() -> Box<dyn BeamStrategy> {
    Box::new(MmReliableStrategy::new(MmReliableController::new(
        MmReliableConfig::paper_default(),
    )))
}

fn reactive() -> Box<dyn BeamStrategy> {
    Box::new(SingleBeamReactive::new(ReactiveConfig::default()))
}

#[test]
fn mmreliable_beats_reactive_on_reliability_under_mobility_and_blockage() {
    // The paper's core end-to-end claim (Fig. 18b), on a handful of seeds.
    let mut wins = 0;
    let n = 3;
    for seed in 0..n {
        let sc = scenario::mobile_blockage(seed);
        let r_mm = run(&sc, seed, mmreliable());
        let r_re = run(&sc, seed, reactive());
        if r_mm.reliability() >= r_re.reliability() {
            wins += 1;
        }
    }
    assert!(wins >= n - 1, "mmReliable won only {wins}/{n} seeds");
}

#[test]
fn oracle_upper_bounds_everyone() {
    let sc = scenario::mobile_blockage(11);
    let oracle = run(
        &sc,
        11,
        Box::new(OracleMrt::ideal(
            ArrayGeometry::paper_8x8(),
            UeReceiver::Omni,
        )),
    );
    let mm = run(&sc, 11, mmreliable());
    assert!(oracle.reliability() >= mm.reliability() - 1e-9);
    assert!(oracle.mean_snr_db() >= mm.mean_snr_db() - 0.5);
    assert_eq!(oracle.probes, 0, "the genie needs no probes");
}

#[test]
fn mmreliable_survives_walker_crossing() {
    // Fig. 16 end-to-end: the walker blocks NLOS then LOS; the multi-beam
    // link must never drop below the outage threshold for long.
    let sc = scenario::static_walker();
    let r = run(&sc, 16, mmreliable());
    assert!(
        r.reliability() > 0.9,
        "mmReliable reliability under walker: {}",
        r.reliability()
    );
    // The single-beam reactive baseline suffers visibly more.
    let r_re = run(&sc, 16, reactive());
    assert!(
        r.reliability() > r_re.reliability(),
        "mm {} vs reactive {}",
        r.reliability(),
        r_re.reliability()
    );
}

#[test]
fn throughput_reliability_product_favors_mmreliable() {
    let mcs = McsTable::nr_table();
    let mut mm_total = 0.0;
    let mut re_total = 0.0;
    for seed in 20..23 {
        let sc = scenario::mixed_mobility_blockage(seed);
        mm_total += run(&sc, seed, mmreliable()).throughput_reliability_product(&mcs);
        re_total += run(&sc, seed, reactive()).throughput_reliability_product(&mcs);
    }
    assert!(
        mm_total > re_total,
        "product: mmReliable {mm_total:.0} vs reactive {re_total:.0}"
    );
}

#[test]
fn probing_overhead_ordering_matches_fig18d() {
    // mmReliable's maintenance overhead must undercut the reactive scan
    // overhead whenever re-scans actually happen.
    let sc = scenario::mobile_blockage(31);
    let r_mm = run(&sc, 31, mmreliable());
    let r_re = run(&sc, 31, reactive());
    assert!(
        r_mm.probing_overhead() < 0.10,
        "mmReliable overhead {}",
        r_mm.probing_overhead()
    );
    assert!(r_re.probing_overhead() > r_mm.probing_overhead() * 0.5);
}

#[test]
fn run_record_is_internally_consistent() {
    let sc = scenario::mobile_blockage(41);
    let r = run(&sc, 41, mmreliable());
    // Samples tile the full (warmup + measurement) window.
    let total: f64 = r.samples.iter().map(|s| s.dur_s).sum();
    assert!(
        (total - sc.warmup_s - sc.duration_s).abs() < 5e-3,
        "total {total}"
    );
    // Measured window matches the scenario duration.
    assert!((r.duration_s() - sc.duration_s).abs() < 5e-3);
    // Reliability is a fraction.
    assert!((0.0..=1.0).contains(&r.reliability()));
    // Samples are in time order.
    for w in r.samples.windows(2) {
        assert!(w[1].t_s >= w[0].t_s);
    }
}
