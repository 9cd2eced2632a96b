//! Failure injection: the system's behavior when the world degrades —
//! estimation noise, total blockage, vanished reflectors, and the CFO
//! impairment that motivated the paper's magnitude-only estimators.

use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmreliable::linkstate::is_legal_transition;
use mmwave_baselines::strategy::{BeamStrategy, MmReliableStrategy};
use mmwave_baselines::SingleBeamReactive;
use mmwave_channel::blockage::{BlockageEvent, BlockageProcess};
use mmwave_sim::faults::{FaultInjector, FaultKind, FaultSchedule, ProbeLossWindow, SnrGlitch};
use mmwave_sim::metrics::RunResult;
use mmwave_sim::scenario::{self, Scenario};
use mmwave_sim::{front_end_stack, ImpairmentConfig, SimFrontEnd};

fn mmreliable() -> Box<dyn BeamStrategy> {
    Box::new(MmReliableStrategy::new(MmReliableController::new(
        MmReliableConfig::paper_default(),
    )))
}

/// Plays `strategy` over `fe` for the scenario's warm-up and duration.
fn run_in<H: SimFrontEnd>(
    mut fe: H,
    sc: &Scenario,
    mut strategy: Box<dyn BeamStrategy>,
) -> RunResult {
    fe.run_with_warmup(
        strategy.as_mut(),
        sc.duration_s,
        sc.tick_period_s,
        sc.name,
        sc.warmup_s,
    )
}

fn run(sc: &Scenario, seed: u64) -> RunResult {
    run_in(sc.simulator(seed), sc, mmreliable())
}

fn run_faulted(sc: &Scenario, seed: u64, sched: FaultSchedule) -> RunResult {
    let fe = FaultInjector::new(sc.simulator(seed), sched).expect("valid fault schedule");
    run_in(fe, sc, mmreliable())
}

fn reactive() -> Box<dyn BeamStrategy> {
    Box::new(SingleBeamReactive::new(Default::default()))
}

#[test]
fn estimation_noise_degrades_gracefully() {
    // 10 dB worse estimation SNR: the link must get worse, not collapse.
    let clean = {
        let sc = scenario::translation_1s();
        run(&sc, 5)
    };
    let noisy = {
        let mut sc = scenario::translation_1s();
        sc.sounder.noise_boost = 10.0;
        run(&sc, 5)
    };
    assert!(noisy.mean_snr_db() <= clean.mean_snr_db() + 0.5);
    assert!(
        noisy.reliability() > 0.7,
        "graceful degradation expected, got reliability {}",
        noisy.reliability()
    );
    // At 100× noise the tracking loop is operating below its design point;
    // the link may thrash, but must not be permanently dead.
    let storm = {
        let mut sc = scenario::translation_1s();
        sc.sounder.noise_boost = 100.0;
        run(&sc, 5)
    };
    assert!(
        storm.reliability() > 0.2,
        "even at 100x noise some link time survives, got {}",
        storm.reliability()
    );
}

#[test]
fn cfo_impairment_does_not_break_the_estimators() {
    // The paper's design premise: probe phases are unreliable, magnitudes
    // are not. Disabling the impairment must not change behavior much.
    let with_cfo = {
        let sc = scenario::translation_1s();
        assert!(sc.sounder.cfo_impairment);
        run(&sc, 9)
    };
    let without_cfo = {
        let mut sc = scenario::translation_1s();
        sc.sounder.cfo_impairment = false;
        run(&sc, 9)
    };
    assert!(
        (with_cfo.mean_snr_db() - without_cfo.mean_snr_db()).abs() < 1.5,
        "CFO on {:.1} dB vs off {:.1} dB",
        with_cfo.mean_snr_db(),
        without_cfo.mean_snr_db()
    );
    assert!((with_cfo.reliability() - without_cfo.reliability()).abs() < 0.1);
}

#[test]
fn total_blockage_causes_outage_then_recovery() {
    // Every path blocked 35 dB for 200 ms: nothing can save the link
    // (the paper: "no solution can prevent link outage if all paths are
    // blocked") — but it must come back afterwards.
    let mut sc = scenario::static_walker();
    let events: Vec<BlockageEvent> = (0..4)
        .map(|i| BlockageEvent::nominal(i, 0.4, 35.0, 0.2))
        .collect();
    sc.dynamic.blockage = BlockageProcess::from_events(events);
    let r = run(&sc, 21);
    let series = r.snr_series();
    // In outage mid-event…
    let mid: Vec<f64> = series
        .iter()
        .filter(|(t, _)| (*t - sc.warmup_s - 0.5).abs() < 0.05)
        .map(|(_, s)| *s)
        .collect();
    assert!(
        mid.iter().copied().fold(f64::INFINITY, f64::min) < 6.0,
        "total blockage must cause outage"
    );
    // …healthy again at the end.
    let tail: Vec<f64> = series
        .iter()
        .filter(|(t, _)| *t > sc.warmup_s + 1.0)
        .map(|(_, s)| *s)
        .collect();
    let tail_mean = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        tail_mean > 14.0,
        "link should recover, tail mean {tail_mean} dB"
    );
}

#[test]
fn reflector_only_blockage_is_survivable() {
    // Blocking only the NLOS beams must barely dent the link.
    let mut sc = scenario::static_walker();
    sc.dynamic.blockage = BlockageProcess::from_events(vec![
        BlockageEvent::nominal(1, 0.3, 30.0, 0.3),
        BlockageEvent::nominal(2, 0.3, 30.0, 0.3),
    ]);
    let r = run(&sc, 33);
    assert!(
        r.reliability() > 0.95,
        "NLOS-only blockage: reliability {}",
        r.reliability()
    );
}

#[test]
fn repeated_blockage_events_each_handled() {
    // Three back-to-back LOS blockage events within one run.
    let mut sc = scenario::static_walker();
    sc.duration_s = 1.5;
    let mut events = Vec::new();
    for i in 0..3 {
        let start = 0.2 + 0.45 * i as f64;
        events.push(BlockageEvent::nominal(0, start, 30.0, 0.2));
        events.push(BlockageEvent::nominal(3, start, 30.0, 0.2));
    }
    sc.dynamic.blockage = BlockageProcess::from_events(events);
    let r = run(&sc, 44);
    assert!(
        r.reliability() > 0.85,
        "repeated blockage: reliability {}",
        r.reliability()
    );
}

#[test]
fn zero_fault_wrapper_is_bit_identical() {
    // Regression guard for the fault layer and the composed stack: an
    // inert schedule, alone or over an inert impairment layer, must not
    // perturb a single sample, probe or event — clean links run through
    // both layers.
    let sc = scenario::static_walker();
    let strategies: [fn() -> Box<dyn BeamStrategy>; 2] = [reactive, mmreliable];
    for strategy in strategies {
        let plain = run_in(sc.simulator(11), &sc, strategy());
        let inert = FaultInjector::new(sc.simulator(11), FaultSchedule::none());
        let faulted = run_in(inert.expect("inert schedule"), &sc, strategy());
        let inert = front_end_stack(
            sc.simulator(11),
            FaultSchedule::none(),
            ImpairmentConfig::none(),
        );
        let stacked = run_in(inert.expect("inert stack"), &sc, strategy());
        for wrapped in [&faulted, &stacked] {
            let who = &plain.strategy;
            assert_eq!(plain.samples.len(), wrapped.samples.len(), "{who}");
            for (a, b) in plain.samples.iter().zip(&wrapped.samples) {
                assert_eq!(a.t_s, b.t_s);
                assert_eq!(a.dur_s, b.dur_s);
                assert_eq!(a.probing, b.probing);
                // NaN marks probing slots, so compare bits, not values.
                assert_eq!(a.snr_db.to_bits(), b.snr_db.to_bits());
            }
            assert_eq!(plain.probes, wrapped.probes, "{who}");
            assert_eq!(
                plain.probe_airtime_s.to_bits(),
                wrapped.probe_airtime_s.to_bits(),
                "{who}"
            );
            assert_eq!(
                plain.events, wrapped.events,
                "{who}: no fault events, same transitions"
            );
            assert_eq!(wrapped.faults().count(), 0);
            assert_eq!(plain.digest(), wrapped.digest(), "{who}");
        }
    }
}

#[test]
fn probe_loss_storm_degrades_gracefully() {
    // Every other probe lost for the entire run: maintenance quality halves
    // but the lifecycle's bounded retries must keep the link mostly up.
    let sc = scenario::static_walker();
    let mut sched = FaultSchedule::none();
    sched.seed = 77;
    sched.probe_loss = vec![ProbeLossWindow {
        start_s: 0.1,
        end_s: 10.0,
        loss_prob: 0.5,
    }];
    let r = run_faulted(&sc, 11, sched);
    assert!(
        r.reliability() > 0.7,
        "probe-loss storm: reliability {}",
        r.reliability()
    );
    assert!(r.faults().any(|f| f.kind == FaultKind::ProbeLost));
}

#[test]
fn two_failed_elements_cost_under_one_db() {
    // 2 of 64 elements dead: the paper-scale array must shrug it off.
    let mut sc = scenario::static_walker();
    sc.dynamic.blockage = BlockageProcess::none();
    let clean = run(&sc, 13);
    let mut sched = FaultSchedule::none();
    sched.failed_elements = vec![3, 17];
    let faulted = run_faulted(&sc, 13, sched);
    let loss = clean.mean_snr_db() - faulted.mean_snr_db();
    assert!(
        loss < 1.0,
        "2/64 element failure must cost < 1 dB, got {loss:.2} dB"
    );
    assert!(faulted.reliability() > 0.95);
    assert!(faulted
        .faults()
        .any(|f| matches!(f.kind, FaultKind::ElementFailed { .. })));
}

#[test]
fn faulted_static_walker_stays_reliable_with_bounded_retrains() {
    // The acceptance scenario: probe loss plus element failures on top of
    // the walker's double blockage. The link must stay > 0.8 reliable, the
    // event log must show the faults and every lifecycle transition, and
    // re-training must be bounded — not a hot loop of SSB scans.
    let sc = scenario::static_walker();
    let mut sched = FaultSchedule::none();
    sched.seed = 99;
    sched.probe_loss = vec![ProbeLossWindow {
        start_s: 0.1,
        end_s: 10.0,
        loss_prob: 0.25,
    }];
    sched.failed_elements = vec![5, 40];
    let r = run_faulted(&sc, 17, sched);
    assert!(
        r.reliability() > 0.8,
        "faulted static-walker: reliability {}",
        r.reliability()
    );
    assert!(r.faults().count() > 0, "faults must be logged");
    let transitions: Vec<_> = r.transitions().collect();
    assert!(
        !transitions.is_empty(),
        "lifecycle transitions must be logged"
    );
    for tr in &transitions {
        assert!(
            is_legal_transition(tr.from.kind(), tr.to.kind()),
            "illegal logged transition {:?} -> {:?}",
            tr.from,
            tr.to
        );
    }
    // Bounded recovery: the lifecycle caps retries per episode and paces
    // them with backoff. Two blockage hits + constant probe loss must not
    // produce more than a handful of full re-training scans.
    let retrains = r.retrain_attempts();
    assert!(
        retrains <= 12,
        "re-training must be bounded, got {retrains} attempts"
    );
}

#[test]
fn quantizer_failure_mode_two_bit_hardware_still_works() {
    let mut cfg = MmReliableConfig::paper_default();
    cfg.quantizer = mmwave_array::quantize::Quantizer::commercial_80211ad();
    let sc = scenario::static_walker();
    let mut sim = sc.simulator(55);
    let mut s = MmReliableStrategy::new(MmReliableController::new(cfg));
    let r = sim.run_with_warmup(
        &mut s,
        sc.duration_s,
        sc.tick_period_s,
        sc.name,
        sc.warmup_s,
    );
    assert!(
        r.reliability() > 0.85,
        "2-bit hardware: reliability {}",
        r.reliability()
    );
}

/// Every lossy fault path at once: a probe-loss window, stale CSI, SNR
/// glitches, an unavailability window and a dead element.
fn lossy_schedule() -> FaultSchedule {
    FaultSchedule {
        seed: 5,
        probe_loss: vec![ProbeLossWindow {
            start_s: 0.2,
            end_s: 0.8,
            loss_prob: 0.3,
        }],
        stale_prob: 0.1,
        snr_glitch: Some(SnrGlitch {
            prob: 0.1,
            mag_db: 6.0,
        }),
        unavailable: vec![(0.9, 0.95)],
        failed_elements: vec![5],
        ..FaultSchedule::none()
    }
}

#[test]
fn lossy_fault_paths_are_pinned() {
    // `RunResult::digest` hashes the samples and the event log in order,
    // so these pins hold every lossy fault path — and the faults-then-
    // impairments event order per tick — to the bit. Each row is
    // (strategy, scenario, digest without impairments, digest over
    // `moderate(9)`).
    let table = [
        (
            "reactive",
            scenario::static_walker(),
            0xdcb4f9c8652e4ce0,
            0xde68fb612d64d7f0,
        ),
        (
            "reactive",
            scenario::mixed_mobility_blockage(3),
            0x9582bb29c94654d4,
            0x822e6d640c85e72f,
        ),
        (
            "mmreliable",
            scenario::static_walker(),
            0x9775c22d88997614,
            0x262114f8f2516783,
        ),
        (
            "mmreliable",
            scenario::mixed_mobility_blockage(3),
            0xd1c8eae1c9b323e1,
            0xcb5b0f0f140a85ea,
        ),
    ];
    let mut seen = std::collections::BTreeSet::new();
    for (strategy, sc, bare, moderate) in table {
        for (impairment, want) in [
            (ImpairmentConfig::none(), bare),
            (ImpairmentConfig::moderate(9), moderate),
        ] {
            let label = format!(
                "{strategy} on {} over {}",
                sc.name,
                impairment.spec_string()
            );
            let fe = front_end_stack(sc.simulator(42), lossy_schedule(), impairment)
                .expect("valid stack");
            let s = match strategy {
                "reactive" => reactive(),
                _ => mmreliable(),
            };
            let r = run_in(fe, &sc, s);
            // The kind's display name without its parameter.
            seen.extend(r.faults().map(|f| {
                let name = f.kind.to_string();
                name.split('(').next().unwrap_or_default().to_string()
            }));
            assert_eq!(r.digest(), want, "{label}: digest {:016x}", r.digest());
        }
    }
    // The pins reach every lossy path, not just probe loss.
    assert_eq!(seen.len(), 5, "every fault kind must fire somewhere");
}
