//! Property-based tests for mmReliable's estimation algorithms.

use mmreliable::frontend::SnapshotFrontEnd;
use mmreliable::probing::full_relative;
use mmreliable::superres::{estimate_per_beam, SuperResConfig};
use mmreliable::tracking::BeamTracker;
use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::pattern::ula_gain_rel;
use mmwave_channel::channel::{GeometricChannel, UeReceiver};
use mmwave_channel::path::{Path, PathKind};
use mmwave_dsp::complex::{c64, Complex64};
use mmwave_dsp::rng::Rng64;
use mmwave_dsp::units::{db_from_pow, wrap_rad, FC_28GHZ};
use mmwave_phy::chanest::{ChannelSounder, ProbeObservation};
use proptest::prelude::*;
use std::f64::consts::PI;

fn synth_probe(
    alphas: &[(f64, f64)],
    rel_delays_ns: &[f64],
    tau0_ns: f64,
    seed: u64,
) -> ProbeObservation {
    let mut rng = Rng64::seed(seed);
    let n = 264;
    let spacing = 12.0 * 120e3;
    let freqs: Vec<f64> = (0..n)
        .map(|i| (i as f64 - (n as f64 - 1.0) / 2.0) * spacing)
        .collect();
    let cfo = rng.random_phasor();
    let csi: Vec<Complex64> = freqs
        .iter()
        .map(|&f| {
            let mut acc = Complex64::ZERO;
            for (k, &(a, ph)) in alphas.iter().enumerate() {
                let tau = (tau0_ns + rel_delays_ns[k]) * 1e-9;
                acc += Complex64::from_polar(a, ph) * Complex64::cis(-2.0 * PI * f * tau);
            }
            cfo * acc + rng.awgn(1e-6)
        })
        .collect();
    ProbeObservation {
        csi,
        freqs_hz: freqs,
        noise_power_mw: 1e-6,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn two_probe_estimator_recovers_any_channel(
        delta in 0.25..1.0f64,
        sigma in -3.0..3.0f64,
        seed in 0u64..200,
    ) {
        let base = 1.2e-4;
        let ch = GeometricChannel::new(
            vec![
                Path::new(0.0, 0.0, c64(base, 0.0), 23.0, PathKind::Los),
                Path::new(30.0, -30.0, Complex64::from_polar(base * delta, sigma), 23.5,
                          PathKind::Reflected { wall: 0 }),
            ],
            FC_28GHZ,
        );
        let mut fe = SnapshotFrontEnd::new(
            ch,
            ChannelSounder::paper_indoor(),
            ArrayGeometry::paper_8x8(),
            UeReceiver::Omni,
            Rng64::seed(seed),
        );
        let (rel, _, _) = full_relative(&mut fe, 0.0, 30.0, 0.5);
        prop_assert!((rel.delta - delta).abs() < 0.1, "δ est {} truth {delta}", rel.delta);
        prop_assert!(
            wrap_rad(rel.sigma_rad - sigma).abs() < 0.3,
            "σ est {} truth {sigma}",
            rel.sigma_rad
        );
    }

    #[test]
    fn superres_powers_track_truth(
        a2 in 0.2..0.9f64,
        ph2 in -3.0..3.0f64,
        dt in 1.0..12.0f64,
        seed in 0u64..100,
    ) {
        let rel = [0.0, dt];
        let obs = synth_probe(&[(1.0, 0.1), (a2, ph2)], &rel, 25.0, seed);
        let est = estimate_per_beam(&obs, &rel, &SuperResConfig::default());
        prop_assert!((est.powers_mw[0] - 1.0).abs() < 0.15, "p0 {}", est.powers_mw[0]);
        prop_assert!(
            (est.powers_mw[1] - a2 * a2).abs() < 0.15,
            "p1 {} truth {}",
            est.powers_mw[1],
            a2 * a2
        );
    }

    #[test]
    fn superres_power_estimates_are_cfo_invariant(
        a2 in 0.3..0.8f64,
        seed_a in 0u64..50,
        seed_b in 50u64..100,
    ) {
        // Different CFO draws (different seeds ⇒ different common phases)
        // must yield nearly identical per-beam *power* estimates.
        let rel = [0.0, 7.0];
        let cfg = SuperResConfig::default();
        let ea = estimate_per_beam(&synth_probe(&[(1.0, 0.0), (a2, 1.0)], &rel, 25.0, seed_a), &rel, &cfg);
        let eb = estimate_per_beam(&synth_probe(&[(1.0, 0.0), (a2, 1.0)], &rel, 25.0, seed_b), &rel, &cfg);
        prop_assert!((ea.powers_mw[0] - eb.powers_mw[0]).abs() < 0.1);
        prop_assert!((ea.powers_mw[1] - eb.powers_mw[1]).abs() < 0.1);
    }

    #[test]
    fn tracker_inverts_pattern_for_any_in_lobe_deviation(
        steer in -20.0..20.0f64,
        frac in 0.1..0.8f64,
    ) {
        let geom = ArrayGeometry::ula(8);
        let null = mmwave_array::pattern::first_null_offset_deg(&geom, steer, 1.0);
        let dev = frac * null;
        let mut t = BeamTracker::new(steer, -50.0, 1.0, 5);
        let g = ula_gain_rel(8, 0.5, steer, steer + dev);
        let power_db = -50.0 + db_from_pow((g * g).max(1e-12));
        let mut est = None;
        for _ in 0..4 {
            est = t.update(&geom, power_db).deviation_deg;
        }
        prop_assert!(est.is_some());
        prop_assert!((est.unwrap() - dev).abs() < 0.5, "dev {dev} est {:?}", est);
    }
}
