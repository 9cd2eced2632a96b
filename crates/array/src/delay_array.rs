//! Delay-phased-array architecture for wideband multi-beam operation
//! (paper §3.4, Eq. 15–17, Figs. 6–8).
//!
//! A conventional phased array applies only frequency-flat phase shifts, so
//! when a multi-beam rides two paths whose propagation delays differ by
//! Δτ, the two signal copies interfere with a frequency-dependent phase
//! `2πf·Δτ` — constructive at some subcarriers, destructive at others
//! (a comb across the band). The paper's fix (Fig. 6) is to use *one phased
//! array per beam*, joined by a network of true-time-delay lines into a
//! single RF chain; each delay line cancels the path-delay difference,
//! restoring a flat response at the full constructive-combining level.
//!
//! Eq. 17 also sketches a budget variant that splits one array into N/2
//! sub-arrays; [`DelayPhasedArray::new`] supports that too (pass the
//! sub-array geometry), at the cost of per-beam aperture.
//!
//! [`DelayPhasedArray::response`] evaluates the end-to-end baseband response
//! at a frequency offset from the carrier for an arbitrary set of paths —
//! this is what regenerates Figs. 7 and 8.

use crate::geometry::ArrayGeometry;
use crate::steering::steering_vector;
use mmwave_dsp::complex::Complex64;
use std::f64::consts::PI;

/// A propagation path as the delay-array analysis sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WidebandPath {
    /// Angle of departure, degrees.
    pub aod_deg: f64,
    /// Complex gain at the carrier frequency (includes the carrier-phase
    /// term `e^{-j2πf_c·τ}`).
    pub gain: Complex64,
    /// Absolute propagation delay, seconds.
    pub tau_s: f64,
}

/// One beam-forming array of the bank: steers one beam, with a
/// true-time-delay line and a constant phase/amplitude trim
/// (the "phase shifters + delay line" of Fig. 6).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubArrayBeam {
    /// Steering angle of this array's beam, degrees.
    pub angle_deg: f64,
    /// True-time delay inserted before this array, seconds (≥ 0:
    /// only causal delays are realizable).
    pub delay_s: f64,
    /// Constant phase trim, radians (aligns the beams at band center).
    pub phase_rad: f64,
    /// Amplitude trim (linear).
    pub amp: f64,
}

/// A bank of identical phased arrays — one per multi-beam component — fed
/// from a single RF chain through per-array delay lines (paper Fig. 6).
/// Total radiated power across the whole bank is normalized to 1.
#[derive(Clone, Debug)]
pub struct DelayPhasedArray {
    /// Geometry of each constituent array.
    per_beam_geom: ArrayGeometry,
    groups: Vec<SubArrayBeam>,
}

impl DelayPhasedArray {
    /// Creates a delay phased array: one `per_beam_geom` array per entry of
    /// `groups`. Panics when no groups are given.
    pub fn new(per_beam_geom: ArrayGeometry, groups: Vec<SubArrayBeam>) -> Self {
        assert!(!groups.is_empty(), "need at least one sub-array");
        Self {
            per_beam_geom,
            groups,
        }
    }

    /// Two-beam delay array matched to a two-path channel: the first array
    /// steers to `path1` with a delay compensating `Δτ = τ₂ − τ₁`
    /// (Eq. 17), the second steers to `path2`. Phase/amplitude trims
    /// implement the constructive combining of Eq. 10 (maximum-ratio over
    /// the two copies).
    pub fn two_beam_compensated(
        per_beam_geom: ArrayGeometry,
        path1: &WidebandPath,
        path2: &WidebandPath,
    ) -> Self {
        let delta_tau = path2.tau_s - path1.tau_s;
        let rel = path2.gain / path1.gain;
        Self::new(
            per_beam_geom,
            vec![
                SubArrayBeam {
                    angle_deg: path1.aod_deg,
                    // Delay the sub-array serving the *earlier* path so both
                    // copies arrive together (only non-negative delays are
                    // realizable in hardware).
                    delay_s: delta_tau.max(0.0),
                    phase_rad: 0.0,
                    amp: 1.0,
                },
                SubArrayBeam {
                    angle_deg: path2.aod_deg,
                    delay_s: (-delta_tau).max(0.0),
                    phase_rad: -rel.arg(),
                    amp: rel.abs().max(1e-6),
                },
            ],
        )
    }

    /// Same beams and trims but with all delay lines set to zero — the
    /// "multi-beam without delay compensation" baseline of Fig. 8.
    pub fn two_beam_uncompensated(
        per_beam_geom: ArrayGeometry,
        path1: &WidebandPath,
        path2: &WidebandPath,
    ) -> Self {
        let mut arr = Self::two_beam_compensated(per_beam_geom, path1, path2);
        for g in arr.groups.iter_mut() {
            g.delay_s = 0.0;
        }
        arr
    }

    /// Frequency-dependent element weights (concatenated across the bank)
    /// at baseband offset `freq_hz`. Normalized so that `‖w‖ = 1` at every
    /// frequency: the delay lines are lossless phase elements and the TRP
    /// budget covers the whole bank.
    pub fn weights_at(&self, freq_hz: f64) -> Vec<Complex64> {
        let per = self.per_beam_geom.num_elements();
        let mut w = vec![Complex64::ZERO; per * self.groups.len()];
        for (gi, grp) in self.groups.iter().enumerate() {
            let steer = steering_vector(&self.per_beam_geom, grp.angle_deg);
            let delay_phase = -2.0 * PI * freq_hz * grp.delay_s + grp.phase_rad;
            let coeff = Complex64::from_polar(grp.amp, delay_phase);
            for (i, s) in steer.iter().enumerate() {
                w[gi * per + i] = coeff * s.conj();
            }
        }
        mmwave_dsp::complex::normalize_in_place(&mut w);
        w
    }

    /// End-to-end baseband channel response at frequency offset `freq_hz`
    /// through the given paths:
    ///
    /// `H(f) = Σ_l γ_l · e^{-j2πf·τ_l} · Σ_g a_g(φ_l)ᵀ · w_g(f)`
    ///
    /// (every array of the bank illuminates every path — cross-lobe leakage
    /// between the banks is modeled, not assumed away).
    pub fn response(&self, paths: &[WidebandPath], freq_hz: f64) -> Complex64 {
        let per = self.per_beam_geom.num_elements();
        let w = self.weights_at(freq_hz);
        let mut h = Complex64::ZERO;
        for p in paths {
            let a = steering_vector(&self.per_beam_geom, p.aod_deg);
            let mut af = Complex64::ZERO;
            for gi in 0..self.groups.len() {
                for (i, s) in a.iter().enumerate() {
                    af += *s * w[gi * per + i];
                }
            }
            h += p.gain * Complex64::cis(-2.0 * PI * freq_hz * p.tau_s) * af;
        }
        h
    }

    /// Power response (linear) across a set of frequency offsets.
    pub fn power_response(&self, paths: &[WidebandPath], freqs_hz: &[f64]) -> Vec<f64> {
        freqs_hz
            .iter()
            .map(|&f| self.response(paths, f).norm_sqr())
            .collect()
    }
}

/// Conventional (phase-only) single beam response over frequency, for the
/// Fig. 7/8 baselines: steers one `geom` array at `aod_deg` and evaluates
/// the response through `paths`.
pub fn single_beam_response(
    geom: &ArrayGeometry,
    aod_deg: f64,
    paths: &[WidebandPath],
    freqs_hz: &[f64],
) -> Vec<f64> {
    let w = crate::steering::single_beam(geom, aod_deg);
    freqs_hz
        .iter()
        .map(|&f| {
            let mut h = Complex64::ZERO;
            for p in paths {
                let a = steering_vector(geom, p.aod_deg);
                let af = w.apply(&a);
                h += p.gain * Complex64::cis(-2.0 * PI * f * p.tau_s) * af;
            }
            h.norm_sqr()
        })
        .collect()
}

/// Phase-only constructive multi-beam response over frequency (paper
/// Eq. 10 weights on a single `geom` array, no delay lines) — the
/// "non-optimized mmReliable" curve of Fig. 8.
pub fn phase_only_multibeam_response(
    geom: &ArrayGeometry,
    path1: &WidebandPath,
    path2: &WidebandPath,
    freqs_hz: &[f64],
) -> Vec<f64> {
    let rel = path2.gain / path1.gain;
    let mb =
        crate::multibeam::MultiBeam::two_beam(path1.aod_deg, path2.aod_deg, rel.abs(), rel.arg());
    let w = mb.weights(geom);
    freqs_hz
        .iter()
        .map(|&f| {
            let mut h = Complex64::ZERO;
            for p in [path1, path2] {
                let a = steering_vector(geom, p.aod_deg);
                let af = w.apply(&a);
                h += p.gain * Complex64::cis(-2.0 * PI * f * p.tau_s) * af;
            }
            h.norm_sqr()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_dsp::complex::c64;
    use mmwave_dsp::stats;

    fn freqs_400mhz(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| -200e6 + 400e6 * i as f64 / (n - 1) as f64)
            .collect()
    }

    fn two_paths(delta_tau_s: f64) -> (WidebandPath, WidebandPath) {
        (
            WidebandPath {
                aod_deg: 0.0,
                gain: c64(1.0, 0.0),
                tau_s: 20e-9,
            },
            WidebandPath {
                aod_deg: 30.0,
                gain: c64(0.9, 0.0),
                tau_s: 20e-9 + delta_tau_s,
            },
        )
    }

    /// Flatness metric: max-to-min power ratio in dB over the band.
    fn ripple_db(p: &[f64]) -> f64 {
        10.0 * (stats::max(p) / stats::min(p)).log10()
    }

    #[test]
    fn single_path_single_beam_is_flat() {
        let g = ArrayGeometry::ula(16);
        let p = WidebandPath {
            aod_deg: 10.0,
            gain: c64(1.0, 0.0),
            tau_s: 30e-9,
        };
        let resp = single_beam_response(&g, 10.0, &[p], &freqs_400mhz(101));
        assert!(ripple_db(&resp) < 1e-9, "single path must be flat");
    }

    #[test]
    fn phase_only_multibeam_has_comb() {
        // Δτ = 5 ns over 400 MHz → interference comb: deep ripple.
        let g = ArrayGeometry::ula(16);
        let (p1, p2) = two_paths(5e-9);
        let resp = phase_only_multibeam_response(&g, &p1, &p2, &freqs_400mhz(201));
        assert!(
            ripple_db(&resp) > 10.0,
            "expected deep comb, got {} dB",
            ripple_db(&resp)
        );
    }

    #[test]
    fn uncompensated_bank_has_comb() {
        let g = ArrayGeometry::ula(16);
        let (p1, p2) = two_paths(5e-9);
        let arr = DelayPhasedArray::two_beam_uncompensated(g, &p1, &p2);
        let resp = arr.power_response(&[p1, p2], &freqs_400mhz(201));
        assert!(
            ripple_db(&resp) > 10.0,
            "expected deep comb, got {} dB",
            ripple_db(&resp)
        );
    }

    #[test]
    fn compensated_two_path_is_flat() {
        let g = ArrayGeometry::ula(16);
        for dtau in [5e-9, 10e-9] {
            let (p1, p2) = two_paths(dtau);
            let arr = DelayPhasedArray::two_beam_compensated(g, &p1, &p2);
            let resp = arr.power_response(&[p1, p2], &freqs_400mhz(201));
            assert!(
                ripple_db(&resp) < 0.5,
                "Δτ={dtau}: ripple {} dB",
                ripple_db(&resp)
            );
        }
    }

    #[test]
    fn compensated_beats_single_beam_everywhere() {
        // One array per beam: worst-case compensated response still beats a
        // single-beam array of the same per-beam size on its best path.
        let g = ArrayGeometry::ula(16);
        let (p1, p2) = two_paths(10e-9);
        let freqs = freqs_400mhz(101);
        let arr = DelayPhasedArray::two_beam_compensated(g, &p1, &p2);
        let multi = arr.power_response(&[p1, p2], &freqs);
        let single = single_beam_response(&g, 0.0, &[p1, p2], &freqs);
        assert!(
            stats::min(&multi) > stats::mean(&single),
            "multi min {} vs single mean {}",
            stats::min(&multi),
            stats::mean(&single)
        );
    }

    #[test]
    fn compensated_matches_constructive_peak() {
        // Flat level ≈ peak of the phase-only comb (full constructive gain,
        // paper Fig. 8 shape).
        let g = ArrayGeometry::ula(16);
        let (p1, p2) = two_paths(5e-9);
        let freqs = freqs_400mhz(401);
        let arr = DelayPhasedArray::two_beam_compensated(g, &p1, &p2);
        let flat = arr.power_response(&[p1, p2], &freqs);
        let comb = arr.clone().power_response(&[p1, p2], &freqs); // same bank
        let uncomp =
            DelayPhasedArray::two_beam_uncompensated(g, &p1, &p2).power_response(&[p1, p2], &freqs);
        let flat_level = stats::mean(&flat);
        let comb_peak = stats::max(&uncomp);
        assert!(
            (10.0 * (flat_level / comb_peak).log10()).abs() < 0.5,
            "flat {flat_level} vs comb peak {comb_peak}"
        );
        assert!(stats::max(&comb) <= flat_level * 1.01);
    }

    #[test]
    fn weights_unit_norm_at_all_frequencies() {
        let g = ArrayGeometry::ula(8);
        let (p1, p2) = two_paths(5e-9);
        let arr = DelayPhasedArray::two_beam_compensated(g, &p1, &p2);
        assert_eq!(arr.weights_at(0.0).len(), 16);
        for f in [-200e6, -37e6, 0.0, 112e6, 200e6] {
            let w = arr.weights_at(f);
            assert!((mmwave_dsp::complex::norm(&w) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn delays_are_non_negative_when_path_order_flips() {
        let g = ArrayGeometry::ula(16);
        // Path 2 earlier than path 1 — compensation must flip to group 2.
        let p1 = WidebandPath {
            aod_deg: 0.0,
            gain: c64(1.0, 0.0),
            tau_s: 30e-9,
        };
        // 30° is a pattern null of the 16-element array steered to 0°, so
        // cross-lobe leakage (which adds a small physical ripple at other
        // separations) vanishes and the compensated response is clean.
        let p2 = WidebandPath {
            aod_deg: 30.0,
            gain: c64(0.5, 0.0),
            tau_s: 22e-9,
        };
        let arr = DelayPhasedArray::two_beam_compensated(g, &p1, &p2);
        assert!(arr.groups.iter().all(|grp| grp.delay_s >= 0.0));
        let resp = arr.power_response(&[p1, p2], &freqs_400mhz(101));
        assert!(ripple_db(&resp) < 0.5, "ripple {} dB", ripple_db(&resp));
    }

    #[test]
    #[should_panic(expected = "at least one sub-array")]
    fn needs_groups() {
        DelayPhasedArray::new(ArrayGeometry::ula(8), Vec::new());
    }
}
