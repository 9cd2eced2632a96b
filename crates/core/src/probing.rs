//! The magnitude-only two-probe estimator of relative per-path channels
//! (paper §3.3, Eq. 11–14).
//!
//! CFO/SFO make the *phase* of channel estimates unreliable across probes,
//! so mmReliable estimates the relative channel `h₂/h₁ = δ·e^{jσ}` from
//! channel **magnitudes** alone:
//!
//! - `p₁, p₂` — received powers through single beams at φ₁, φ₂,
//! - `p₃` — power through the 2-beam probe `w(φ₁, φ₂, 1, 0)`,
//! - `p₄` — power through `w(φ₁, φ₂, 1, π/2)`.
//!
//! With `h₁` taken real-positive (phase reference), Eq. 12 yields `h₂`.
//! All four quantities are per-subcarrier power spectra here; the wideband
//! joint estimate (Eq. 13–14) is their `p₁`-weighted average across
//! frequency.
//!
//! Normalization note: our 2-beam probe splits power across two beams
//! (`‖w‖ = 1`), so the combined-probe powers carry a factor ½ relative to
//! the paper's un-normalized `|h₁+h₂|²`; the estimator accounts for it.

use crate::frontend::LinkFrontEnd;
use mmwave_array::multibeam::{synthesize_into, BeamComponent};
use mmwave_array::weights::BeamWeights;
use mmwave_dsp::complex::{c64, Complex64};
use mmwave_phy::chanest::ProbeObservation;
use std::f64::consts::FRAC_PI_2;

/// The estimated relative channel of one beam w.r.t. the reference beam.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RelativeChannel {
    /// Relative amplitude δ (linear).
    pub delta: f64,
    /// Relative phase σ, radians in `(-π, π]`.
    pub sigma_rad: f64,
}

/// Buffers of a controller's probes, reused across rounds: the weights
/// being radiated, two observations (the two combined probes of
/// [`two_probe_relative`] are read together) and their power spectra.
#[derive(Clone, Debug)]
pub struct ProbeScratch {
    pub(crate) weights: BeamWeights,
    /// The last probe; the first of a combined pair.
    pub(crate) obs: ProbeObservation,
    /// The second probe of a combined pair.
    pair_obs: ProbeObservation,
    spectra: [Vec<f64>; 2],
}

impl Default for ProbeScratch {
    fn default() -> Self {
        Self {
            weights: BeamWeights::muted(1),
            obs: ProbeObservation::default(),
            pair_obs: ProbeObservation::default(),
            spectra: Default::default(),
        }
    }
}

/// Writes the noise-debiased per-subcarrier power spectrum of a probe, mW,
/// into `out`, reusing its allocation.
fn power_spectrum_into(obs: &ProbeObservation, out: &mut Vec<f64>) {
    let noise = obs.noise_power_mw;
    out.clear();
    out.extend(obs.csi.iter().map(|v| (v.norm_sqr() - noise).max(0.0)));
}

/// Pure-math core of Eq. 12 + Eq. 14: given the four power spectra
/// (`p3`/`p4` measured through *unit-norm equal-split* 2-beam probes, hence
/// the factor-2 corrections), returns the wideband joint `(δ, σ)`.
///
/// `freqs_hz`/`rel_delay_ns`: the two paths differ in propagation delay by
/// `Δτ`, so their per-subcarrier relative phase carries a linear slope
/// `-2πf·Δτ` on top of the constant σ. Training knows Δτ (§4.3), so the
/// estimator derotates it before averaging — without this, any channel
/// with `Δτ·BW ≳ 1` would average its relative phase to zero (which is
/// exactly the wideband comb problem §3.4's delay array addresses). The
/// returned σ is the relative phase at band center.
///
/// `p1`/`p2` may be single-element slices (a scalar wideband power, as the
/// training scan produces); they are then broadcast across the comb.
// xtask-allow(hot-path-panic): the entry asserts give every spectrum the comb's length n or (p1/p2) length 1, which is read at index 0, so per-subcarrier indices are in bounds
pub fn relative_from_powers(
    p1: &[f64],
    p2: &[f64],
    p3: &[f64],
    p4: &[f64],
    freqs_hz: &[f64],
    rel_delay_ns: f64,
) -> RelativeChannel {
    let n = p3.len();
    let on_comb = |p: &[f64]| p.len() == n || p.len() == 1;
    assert!(
        p4.len() == n && on_comb(p1) && on_comb(p2),
        "spectra must share a comb"
    );
    assert!(
        freqs_hz.is_empty() || freqs_hz.len() == n,
        "frequency comb must match the spectra"
    );
    let at = |p: &[f64], i: usize| if p.len() == 1 { p[0] } else { p[i] };
    // Per-subcarrier relative channel, delay-derotated, then p1-weighted
    // average (Eq. 14).
    let mut acc = Complex64::ZERO;
    let mut weight = 0.0;
    for i in 0..n {
        let (p1, p2) = (at(p1, i), at(p2, i));
        if p1 <= 0.0 {
            continue;
        }
        let sqrt_p1 = p1.sqrt();
        let re = (2.0 * p3[i] - p1 - p2) / (2.0 * sqrt_p1);
        let im = (p1 + p2 - 2.0 * p4[i]) / (2.0 * sqrt_p1);
        // r(f) = h2(f)/h1(f) with h1(f) real = √p1(f).
        let mut r = c64(re, im) / sqrt_p1;
        if !freqs_hz.is_empty() {
            r *= Complex64::cis(2.0 * std::f64::consts::PI * freqs_hz[i] * rel_delay_ns * 1e-9);
        }
        acc += r.scale(p1);
        weight += p1;
    }
    if weight <= 0.0 {
        return RelativeChannel {
            delta: 0.0,
            sigma_rad: 0.0,
        };
    }
    let joint = acc / weight;
    RelativeChannel {
        delta: joint.abs(),
        sigma_rad: joint.arg(),
    }
}

/// Runs the two extra probes of the two-probe method for beam `phi_k`
/// against reference `phi_ref`, reusing previously measured single-beam
/// spectra `p1`/`p2` (e.g. from training; a single element is broadcast,
/// see [`relative_from_powers`]). Probes through `scratch`; consumes
/// exactly 2 probes.
///
/// The combined probes radiate the ideal (unquantized) 2-beam weights,
/// unlike every other probe of the controller (DESIGN.md §5).
pub fn two_probe_relative(
    fe: &mut dyn LinkFrontEnd,
    scratch: &mut ProbeScratch,
    phi_ref_deg: f64,
    phi_k_deg: f64,
    p1: &[f64],
    p2: &[f64],
    rel_delay_ns: f64,
) -> RelativeChannel {
    let geom = *fe.geometry();
    let ProbeScratch {
        weights,
        obs: obs3,
        pair_obs: obs4,
        spectra: [p3, p4],
    } = scratch;
    let mut probe_pair = |sigma_rad: f64, obs: &mut ProbeObservation, p: &mut Vec<f64>| {
        let pair = [
            BeamComponent::reference(phi_ref_deg),
            BeamComponent::new(phi_k_deg, 1.0, sigma_rad),
        ];
        synthesize_into(&pair, &geom, weights);
        fe.probe_into(weights, obs);
        power_spectrum_into(obs, p);
    };
    probe_pair(0.0, obs3, p3);
    probe_pair(-FRAC_PI_2, obs4, p4);
    relative_from_powers(p1, p2, p3, p4, &obs3.freqs_hz, rel_delay_ns)
}

/// Full 4-probe measurement for one beam pair: sounds both single beams and
/// both combined probes. Returns the estimate plus the reference beam's
/// spectrum (reusable for further beams).
pub fn full_relative(
    fe: &mut dyn LinkFrontEnd,
    phi_ref_deg: f64,
    phi_k_deg: f64,
    rel_delay_ns: f64,
) -> (RelativeChannel, Vec<f64>, Vec<f64>) {
    let geom = *fe.geometry();
    let mut s = ProbeScratch::default();
    let mut spectra = [Vec::new(), Vec::new()];
    for (phi_deg, p) in [phi_ref_deg, phi_k_deg].into_iter().zip(&mut spectra) {
        synthesize_into(&[BeamComponent::reference(phi_deg)], &geom, &mut s.weights);
        fe.probe_into(&s.weights, &mut s.obs);
        power_spectrum_into(&s.obs, p);
    }
    let [p1, p2] = spectra;
    let rel = two_probe_relative(fe, &mut s, phi_ref_deg, phi_k_deg, &p1, &p2, rel_delay_ns);
    (rel, p1, p2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::SnapshotFrontEnd;
    use mmwave_array::geometry::ArrayGeometry;
    use mmwave_array::multibeam::MultiBeam;
    use mmwave_channel::channel::{GeometricChannel, UeReceiver};
    use mmwave_channel::path::{Path, PathKind};
    use mmwave_dsp::rng::Rng64;
    use mmwave_dsp::units::{wrap_rad, FC_28GHZ};
    use mmwave_phy::chanest::ChannelSounder;

    /// Two-path channel with known (δ, σ), absolute scale ~1e-4 (≈7 m FSPL).
    fn frontend(delta: f64, sigma: f64, seed: u64) -> SnapshotFrontEnd {
        let base = 1.2e-4;
        let ch = GeometricChannel::new(
            vec![
                Path::new(0.0, 0.0, c64(base, 0.0), 23.0, PathKind::Los),
                Path::new(
                    30.0,
                    -40.0,
                    Complex64::from_polar(base * delta, sigma),
                    28.0,
                    PathKind::Reflected { wall: 0 },
                ),
            ],
            FC_28GHZ,
        );
        SnapshotFrontEnd::new(
            ch,
            ChannelSounder::paper_indoor(),
            ArrayGeometry::paper_8x8(),
            UeReceiver::Omni,
            Rng64::seed(seed),
        )
    }

    #[test]
    fn recovers_known_delta_sigma() {
        for (delta, sigma) in [(0.5, 1.0), (0.7, -2.0), (0.3, 0.1), (1.0, 2.8)] {
            let mut fe = frontend(delta, sigma, 7);
            let (rel, _, _) = full_relative(&mut fe, 0.0, 30.0, 5.0);
            assert!(
                (rel.delta - delta).abs() < 0.08,
                "δ: est {} vs true {delta}",
                rel.delta
            );
            assert!(
                wrap_rad(rel.sigma_rad - sigma).abs() < 0.25,
                "σ: est {} vs true {sigma}",
                rel.sigma_rad
            );
        }
    }

    #[test]
    fn estimator_is_cfo_immune() {
        // The sounder applies a random common phase per probe; estimates
        // must stay accurate regardless (this is the paper's core claim
        // for the magnitude-only design).
        let mut any_phase_differs = false;
        let mut prev: Option<f64> = None;
        for seed in 0..5 {
            let mut fe = frontend(0.6, 0.9, seed);
            assert!(fe.sounder.cfo_impairment);
            let (rel, _, _) = full_relative(&mut fe, 0.0, 30.0, 5.0);
            assert!(
                (rel.delta - 0.6).abs() < 0.08,
                "seed {seed}: δ {}",
                rel.delta
            );
            assert!(
                wrap_rad(rel.sigma_rad - 0.9).abs() < 0.25,
                "seed {seed}: σ {}",
                rel.sigma_rad
            );
            if let Some(p) = prev {
                if (p - rel.sigma_rad).abs() > 1e-6 {
                    any_phase_differs = true;
                }
            }
            prev = Some(rel.sigma_rad);
        }
        assert!(
            any_phase_differs,
            "estimates should vary slightly with noise"
        );
    }

    #[test]
    fn probe_count_is_two_plus_two() {
        let mut fe = frontend(0.5, 0.5, 3);
        let before = fe.probes_used();
        let _ = full_relative(&mut fe, 0.0, 30.0, 5.0);
        assert_eq!(fe.probes_used() - before, 4);
        // The incremental variant costs exactly 2.
        let p1 = vec![1.0; 264];
        let p2 = vec![0.2; 264];
        let before = fe.probes_used();
        let mut scratch = ProbeScratch::default();
        let _ = two_probe_relative(&mut fe, &mut scratch, 0.0, 30.0, &p1, &p2, 5.0);
        assert_eq!(fe.probes_used() - before, 2);
    }

    #[test]
    fn noiseless_math_is_exact() {
        // Synthetic spectra for h1 = 2, h2 = δe^{jσ}·2 on one subcarrier.
        let (delta, sigma) = (0.4, -1.3);
        let h1 = c64(2.0, 0.0);
        let h2 = Complex64::from_polar(2.0 * delta, sigma);
        let p1 = vec![h1.norm_sqr()];
        let p2 = vec![h2.norm_sqr()];
        let p3 = vec![(h1 + h2).norm_sqr() / 2.0];
        let p4 = vec![(h1 + Complex64::J * h2).norm_sqr() / 2.0];
        let rel = relative_from_powers(&p1, &p2, &p3, &p4, &[], 0.0);
        assert!((rel.delta - delta).abs() < 1e-12);
        assert!(wrap_rad(rel.sigma_rad - sigma).abs() < 1e-12);
    }

    #[test]
    fn zero_reference_is_safe() {
        let rel = relative_from_powers(&[0.0], &[1.0], &[0.5], &[0.5], &[], 0.0);
        assert_eq!(rel.delta, 0.0);
    }

    #[test]
    fn constructive_beam_from_estimate_beats_blind_combining() {
        // End-to-end: the estimated (δ, σ) must produce a higher-SNR
        // multi-beam than a phase-blind equal split (paper Fig. 15a).
        let (delta, sigma) = (0.7, 2.4);
        let mut fe = frontend(delta, sigma, 11);
        let (rel, _, _) = full_relative(&mut fe, 0.0, 30.0, 5.0);
        let geom = *fe.geometry();
        let est = MultiBeam::two_beam(0.0, 30.0, rel.delta, rel.sigma_rad).weights(&geom);
        let blind = MultiBeam::two_beam(0.0, 30.0, 1.0, 0.0).weights(&geom);
        let p_est = fe.channel.received_power(&geom, &est, &UeReceiver::Omni);
        let p_blind = fe.channel.received_power(&geom, &blind, &UeReceiver::Omni);
        assert!(p_est > p_blind, "est {p_est} vs blind {p_blind}");
        // And it should approach the oracle.
        let p_opt = fe.channel.optimal_power(&geom, &UeReceiver::Omni);
        assert!(p_est > 0.95 * p_opt, "est {p_est} vs oracle {p_opt}");
    }

    #[test]
    #[should_panic(expected = "share a comb")]
    fn spectra_length_checked() {
        relative_from_powers(&[1.0], &[1.0, 2.0], &[1.0], &[1.0], &[], 0.0);
    }
}
