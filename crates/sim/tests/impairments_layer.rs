//! The hardware-impairment layer's end-to-end contracts: an all-off
//! configuration is bit-identical to the bare front end (property-tested
//! across scenarios and seeds), enabled impairments degrade the link
//! without wedging the lifecycle machine, a compression-driven SNR ceiling
//! exhausts the retry budget into the wide-beam fallback instead of a
//! retry storm, phase-noise ripple straddling the outage threshold
//! does not flap Steady↔Outage, and the memoised data-plane weight
//! transform radiates exactly what a fresh transform would.

use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmreliable::frontend::LinkFrontEnd;
use mmreliable::linkstate::{
    is_legal_transition, LifecycleConfig, LinkLifecycle, LinkSignal, LinkState, LinkStateKind,
    TransitionCause,
};
use mmwave_array::steering::single_beam;
use mmwave_array::weights::BeamWeights;
use mmwave_baselines::strategy::{BeamStrategy, MmReliableStrategy};
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::phase_noise::WienerPhase;
use mmwave_dsp::rng::Rng64;
use mmwave_sim::impairments::ImpairedFrontEnd;
use mmwave_sim::metrics::RunResult;
use mmwave_sim::scenario::{self, Scenario};
use mmwave_sim::simulator::SimFrontEnd;
use mmwave_sim::{FaultInjector, FaultSchedule, ImpairmentConfig};
use proptest::prelude::*;

fn mmreliable() -> Box<dyn BeamStrategy> {
    Box::new(MmReliableStrategy::new(MmReliableController::new(
        MmReliableConfig::paper_default(),
    )))
}

fn run(sc: &Scenario, seed: u64) -> RunResult {
    let mut sim = sc.simulator(seed);
    let mut s = mmreliable();
    sim.run_with_warmup(
        s.as_mut(),
        sc.duration_s,
        sc.tick_period_s,
        sc.name,
        sc.warmup_s,
    )
}

fn run_impaired(sc: &Scenario, seed: u64, cfg: ImpairmentConfig) -> RunResult {
    let mut fe = ImpairedFrontEnd::new(sc.simulator(seed), cfg).expect("valid impairment config");
    let mut s = mmreliable();
    fe.run_with_warmup(
        s.as_mut(),
        sc.duration_s,
        sc.tick_period_s,
        sc.name,
        sc.warmup_s,
    )
}

#[test]
fn inert_wrapper_is_bit_identical_full_run() {
    // The tentpole contract, at full-run granularity: wrapping the
    // simulator in an all-off impairment config must not perturb a single
    // sample or event.
    let sc = scenario::static_walker();
    let plain = run(&sc, 11);
    let wrapped = run_impaired(&sc, 11, ImpairmentConfig::none());
    assert_eq!(plain.samples.len(), wrapped.samples.len());
    for (a, b) in plain.samples.iter().zip(&wrapped.samples) {
        assert_eq!(a.t_s, b.t_s);
        assert_eq!(a.dur_s, b.dur_s);
        assert_eq!(a.probing, b.probing);
        // NaN marks probing slots, so compare bits, not values.
        assert_eq!(a.snr_db.to_bits(), b.snr_db.to_bits());
    }
    assert_eq!(plain.probes, wrapped.probes);
    assert_eq!(plain.events, wrapped.events);
    assert_eq!(wrapped.impairments().count(), 0);
    assert_eq!(plain.digest(), wrapped.digest());
}

/// A short scenario for the property below: full library scenarios run
/// seconds of simulated time each; the bit-identity property holds per
/// slot, so a trimmed run exercises it just as hard.
fn short_scenario(which: u8) -> Scenario {
    let mut sc = match which % 3 {
        0 => scenario::static_walker(),
        1 => scenario::mobile_blockage(5),
        _ => scenario::translation_1s(),
    };
    sc.duration_s = 0.3;
    sc.warmup_s = sc.warmup_s.min(0.1);
    sc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any all-disabled configuration — whatever its seed — leaves the run
    /// digest untouched on any scenario and simulator seed.
    #[test]
    fn random_inert_configs_preserve_digests(
        cfg_seed in 0u64..u64::MAX,
        sim_seed in 0u64..1000,
        which in 0u8..3,
    ) {
        let sc = short_scenario(which);
        let mut cfg = ImpairmentConfig::none();
        cfg.seed = cfg_seed;
        prop_assert!(cfg.is_inert());
        let plain = run(&sc, sim_seed);
        let wrapped = run_impaired(&sc, sim_seed, cfg);
        prop_assert_eq!(
            plain.digest(),
            wrapped.digest(),
            "inert impairment wrapper must be bit-identical (scenario {}, seed {})",
            sc.name,
            sim_seed
        );
    }
}

#[test]
fn severity_orders_link_quality_and_annotates_runs() {
    // none ≥ mild ≥ severe in mean SNR, every logged transition legal, and
    // the impaired runs carry stage annotations in their event stream.
    let sc = scenario::static_walker();
    let clean = run(&sc, 17);
    let mild = run_impaired(&sc, 17, ImpairmentConfig::mild(17));
    let severe = run_impaired(&sc, 17, ImpairmentConfig::severe(17));
    // Impaired probes shift retrain timing, so single-seed comparisons
    // carry a couple of dB of alignment luck; mild must stay in the clean
    // run's neighbourhood while severe must fall clearly below both.
    assert!(
        (mild.mean_snr_db() - clean.mean_snr_db()).abs() < 3.0,
        "mild impairments must stay near the clean link: {} vs {}",
        mild.mean_snr_db(),
        clean.mean_snr_db()
    );
    assert!(
        severe.mean_snr_db() < clean.mean_snr_db() - 2.0
            && severe.mean_snr_db() < mild.mean_snr_db() - 2.0,
        "severe must cost real SNR: {} vs clean {} / mild {}",
        severe.mean_snr_db(),
        clean.mean_snr_db(),
        mild.mean_snr_db()
    );
    assert!(
        mild.impairments().count() > 0,
        "enabled stages must be annotated"
    );
    for r in [&mild, &severe] {
        for tr in r.transitions() {
            assert!(
                is_legal_transition(tr.from.kind(), tr.to.kind()),
                "illegal logged transition {:?} -> {:?}",
                tr.from,
                tr.to
            );
        }
    }
    // Severe hardware is allowed to hurt, but the lifecycle must keep the
    // link alive rather than wedge in a scan loop.
    assert!(
        severe.reliability() > 0.2,
        "severe impairments must degrade, not kill: reliability {}",
        severe.reliability()
    );
    let rounds = (sc.duration_s / sc.tick_period_s).ceil() as usize;
    let retrains = severe.retrain_attempts();
    assert!(
        retrains <= rounds / 4,
        "retry storm: {retrains} retrains over {rounds} maintenance rounds"
    );
}

fn snr_report(snr_db: f64, ref_db: f64) -> LinkSignal {
    LinkSignal::SnrReport {
        snr_db,
        ref_db,
        unexplained_drop: false,
    }
}

#[test]
fn compression_ceiling_exhausts_retries_into_fallback_without_storm() {
    // A PA-compression SNR ceiling looks like this to the lifecycle: every
    // round measures well below reference but above outage, and re-training
    // cannot fix it. The machine must reach Degraded, spend its bounded
    // retry budget, engage the wide-beam fallback — and then stop burning
    // airtime on scans.
    let cfg = LifecycleConfig::default();
    let budget = cfg.max_retrain_attempts;
    let mut lc = LinkLifecycle::new(cfg);
    lc.apply(
        LinkSignal::EstablishResult {
            ok: true,
            snr_db: 24.0,
        },
        0.0,
    );
    let mut t = 0.0;
    let mut recovering_entries = 0u32;
    // 400 maintenance rounds at 20 ms under a 12 dB ceiling (ref 24).
    for _ in 0..400 {
        t += 0.02;
        lc.apply(snr_report(12.0, 24.0), t);
        if let LinkState::Recovering { .. } = lc.state() {
            recovering_entries += 1;
            // The ceiling is hardware: the re-train scan cannot clear it.
            lc.apply(
                LinkSignal::EstablishResult {
                    ok: false,
                    snr_db: f64::NEG_INFINITY,
                },
                t,
            );
        }
    }
    let log = lc.log();
    assert!(
        log.iter()
            .any(|tr| tr.cause == TransitionCause::DegradationPersisted),
        "persistent ceiling must reach Degraded"
    );
    assert!(
        log.iter()
            .any(|tr| tr.cause == TransitionCause::RetryBudgetExhausted),
        "the retry budget must exhaust under a hardware ceiling"
    );
    assert!(lc.fallback_active(), "wide-beam fallback must engage");
    // After exhaustion the machine keeps probing for recovery, but paced
    // by the backoff cap — nowhere near one scan per maintenance round.
    // 400 rounds span 8 s; at backoff_max pacing that is ~20 attempts plus
    // the initial budget.
    let cap = budget + (8.0 / LifecycleConfig::default().backoff_max_s).ceil() as u32 + 2;
    assert!(
        recovering_entries >= budget,
        "the budget itself must be spent, got {recovering_entries}"
    );
    assert!(
        recovering_entries <= cap,
        "retry storm: {recovering_entries} scan attempts (pacing cap {cap})"
    );
    assert!(
        matches!(
            lc.state().kind(),
            LinkStateKind::Degraded | LinkStateKind::Recovering
        ),
        "fallback holds below Steady until a re-train actually succeeds"
    );
    for tr in log {
        assert!(is_legal_transition(tr.from.kind(), tr.to.kind()));
    }
}

#[test]
fn phase_noise_ripple_at_outage_threshold_does_not_flap() {
    // Phase-noise ICI makes the measured SNR ripple. Sitting just above
    // the 6 dB outage threshold but below the 8 dB exit hysteresis, the
    // machine must collapse once and hold — not oscillate Steady↔Outage
    // with every crossing.
    let cfg = LifecycleConfig::default();
    let mut lc = LinkLifecycle::new(cfg);
    lc.apply(
        LinkSignal::EstablishResult {
            ok: true,
            snr_db: 24.0,
        },
        0.0,
    );
    // A seeded Wiener walk supplies the ripple shape: ±1.5 dB around
    // 6.3 dB crosses 6.0 repeatedly yet never reaches the 8.0 exit.
    let mut pn = WienerPhase::new(3e3, 1e-3);
    let mut rng = Rng64::seed(42);
    let mut t = 0.0;
    for _ in 0..300 {
        t += 0.02;
        let ripple = 1.5 * (pn.advance(0.02, &mut rng) / std::f64::consts::PI);
        let snr = (6.3 + ripple).min(7.9);
        lc.apply(snr_report(snr, 24.0), t);
        if let LinkState::Recovering { .. } = lc.state() {
            lc.apply(
                LinkSignal::EstablishResult {
                    ok: false,
                    snr_db: f64::NEG_INFINITY,
                },
                t,
            );
        }
    }
    let log = lc.log();
    let collapses = log
        .iter()
        .filter(|tr| {
            tr.from.kind() == LinkStateKind::Steady && tr.to.kind() == LinkStateKind::Outage
        })
        .count();
    assert_eq!(collapses, 1, "threshold ripple must collapse exactly once");
    assert_eq!(
        log.iter()
            .filter(|tr| tr.to.kind() == LinkStateKind::Steady
                && tr.from.kind() != LinkStateKind::Acquiring)
            .count(),
        0,
        "nothing below the exit hysteresis may re-enter Steady"
    );
    for tr in log {
        assert!(
            is_legal_transition(tr.from.kind(), tr.to.kind()),
            "illegal transition {:?} -> {:?}",
            tr.from,
            tr.to
        );
    }
}

#[test]
fn erasure_takes_the_confirmed_outage_path() {
    // An erased probe measures below ERASURE_FLOOR_DB (−55); the
    // controller reports it as a *non-urgent* collapse, so the lifecycle
    // must take the confirmed-outage path (collapse now, re-train after
    // backoff) rather than the urgent same-round re-train reserved for
    // measured unexplained drops.
    let mut lc = LinkLifecycle::new(LifecycleConfig::default());
    lc.apply(
        LinkSignal::EstablishResult {
            ok: true,
            snr_db: 24.0,
        },
        0.0,
    );
    let tr = lc
        .apply(snr_report(-60.0, 24.0), 0.1)
        .expect("deep collapse transitions");
    assert_eq!(tr.cause, TransitionCause::SnrCollapsed);
    assert_eq!(
        tr.to.kind(),
        LinkStateKind::Outage,
        "an erasure must confirm through Outage, not bypass into Recovering"
    );
}

// ---------------------------------------------------------------------------
// Data-plane weight memo
// ---------------------------------------------------------------------------

fn assert_bits_eq(got: &BeamWeights, want: &BeamWeights, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (g, e) in got.as_slice().iter().zip(want.as_slice()) {
        assert_eq!(g.re.to_bits(), e.re.to_bits(), "{what}");
        assert_eq!(g.im.to_bits(), e.im.to_bits(), "{what}");
    }
}

/// The un-memoised transform of `w`, from a stack built for this one call.
fn fresh_transform(cfg: &ImpairmentConfig, w: &BeamWeights) -> BeamWeights {
    let mut fe = ImpairedFrontEnd::new(scenario::static_walker().simulator(5), cfg.clone())
        .expect("valid impairment config");
    fe.impaired_weights(w)
}

#[test]
fn memoised_radiated_weights_match_a_fresh_transform() {
    // A weight sequence that repeats (hits), changes (misses) and returns
    // to an earlier input (a miss that must not serve a stale entry).
    // `a_zero` and `a_neg_zero` differ only in the sign of one zeroed
    // element, which compares equal as a float but not bitwise.
    let cfg = ImpairmentConfig::moderate(9);
    let mut fe = ImpairedFrontEnd::new(scenario::static_walker().simulator(5), cfg.clone())
        .expect("valid impairment config");
    let geom = *fe.geometry();
    let a = single_beam(&geom, 12.0);
    let b = single_beam(&geom, -30.0);
    let mut a_zero = a.clone();
    a_zero.as_mut_slice()[5] = Complex64::ZERO;
    let mut a_neg_zero = a_zero.clone();
    a_neg_zero.as_mut_slice()[5] = Complex64::new(-0.0, -0.0);
    let sequence = [
        &a,
        &a,
        &b,
        &b,
        &b,
        &a,
        &a_zero,
        &a_neg_zero,
        &a_zero,
        &b,
        &a,
    ];
    let mut got = BeamWeights::muted(geom.num_elements());
    for (i, w) in sequence.into_iter().enumerate() {
        fe.radiated_weights_into(w, &mut got);
        assert_bits_eq(&got, &fresh_transform(&cfg, w), &format!("step {i}"));
        fe.wait(fe.sim().slot_s);
    }
}

#[test]
fn drifting_faults_over_mild_impairments_match_a_fresh_transform() {
    // Gain drift above the impairment layer hands it new weights every
    // slot, so every slot misses the memo; the result must still be the
    // exact composition drift/failures → PA → mismatch → coupling.
    let cfg = ImpairmentConfig::mild(4);
    let schedule = FaultSchedule {
        seed: 17,
        failed_elements: vec![3, 17, 42],
        gain_drift_db: 1.5,
        gain_drift_period_s: 0.5,
        ..FaultSchedule::none()
    };
    let impaired = ImpairedFrontEnd::new(scenario::static_walker().simulator(5), cfg.clone())
        .expect("valid impairment config");
    let mut fe = FaultInjector::new(impaired, schedule).expect("valid fault schedule");
    let w = single_beam(fe.geometry(), 7.5);
    let mut got = BeamWeights::muted(w.len());
    let mut previous = BeamWeights::muted(w.len());
    let slot_s = fe.sim().slot_s;
    for slot in 0..200 {
        fe.radiated_weights_into(&w, &mut got);
        let want = fresh_transform(&cfg, &fe.faulted_weights(&w));
        assert_bits_eq(&got, &want, &format!("slot {slot}"));
        assert_ne!(
            got, previous,
            "drift changes the radiated weights every slot"
        );
        previous.copy_from(&got);
        fe.wait(slot_s);
    }
}

#[test]
fn inert_config_radiates_the_bare_simulators_weights() {
    let mut bare = scenario::static_walker().simulator(5);
    let mut wrapped = ImpairedFrontEnd::new(
        scenario::static_walker().simulator(5),
        ImpairmentConfig::none(),
    )
    .expect("valid impairment config");
    let geom = *wrapped.geometry();
    let n = geom.num_elements();
    let (mut want, mut got) = (BeamWeights::muted(n), BeamWeights::muted(n));
    for angle in [0.0, 0.0, 20.0, -45.0, 0.0] {
        let w = single_beam(&geom, angle);
        bare.radiated_weights_into(&w, &mut want);
        wrapped.radiated_weights_into(&w, &mut got);
        assert_bits_eq(&got, &want, &format!("angle {angle}"));
        let slot_s = bare.slot_s;
        bare.wait(slot_s);
        wrapped.wait(slot_s);
    }
}
