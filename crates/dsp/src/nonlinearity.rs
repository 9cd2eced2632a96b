//! Memoryless power-amplifier nonlinearity (Rapp AM/AM + AM/PM).
//!
//! Every element of a mmWave front end drives its own PA, and the PA's
//! compression point is set relative to the *uniform* per-element drive of
//! a constant-modulus beam. Constructive multi-beams are deliberately
//! non-constant-modulus (the per-element amplitude taper is what steers
//! power into two lobes at once), so the same back-off that leaves a single
//! beam untouched pushes a multi-beam's amplitude peaks into compression —
//! the hardware effect the impairment ablation quantifies.
//!
//! The model is the standard Rapp solid-state PA ("Performance and
//! Impairment Modelling for Hardware Components in Millimetre-wave
//! Transceivers", arXiv:1803.05665):
//!
//! - AM/AM: `g(a) = a / (1 + (a/a_sat)^{2p})^{1/(2p)}` — smooth limiting at
//!   the saturation amplitude `a_sat`, knee sharpness `p`,
//! - AM/PM: `φ(a) = φ_max · (a/a_sat)² / (1 + (a/a_sat)²)` — amplitude-
//!   dependent phase rotation toward `φ_max` at deep saturation.
//!
//! [`RappPa::apply`] evaluates both on `r² = (a/a_sat)²`, straight from
//! `|x|²`: the AM/AM gain `g(a)/a = (1 + (r²)^p)^{-1/(2p)}` needs no
//! amplitude, and the worst compression of a weight vector is one
//! `log10` of the smallest gain. The gain and the AM/PM rotation run on
//! the branch-free kernels of [`crate::math`] (`exp`, `ln`,
//! `sin_cos_turn`) in separate passes over stack batches, so they
//! vectorise and no element calls libm's `powf`. Deterministic,
//! allocation-free, applied in place.

use crate::complex::{c64, Complex64};
use crate::math::{exp, ln, sin_cos_turn, BATCH};
use mmwave_hotpath::hot_path;

/// A Rapp-model PA shared by every element of the array.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RappPa {
    /// Saturation amplitude (same units as the weight amplitudes).
    pub a_sat: f64,
    /// Knee sharpness `p` (2–3 is typical for mmWave SSPAs; larger is
    /// closer to an ideal hard limiter).
    pub smoothness: f64,
    /// Maximum AM/PM phase rotation at deep saturation, radians.
    pub am_pm_max_rad: f64,
}

impl RappPa {
    /// PA with `a_sat` referenced `backoff_db` above the uniform drive
    /// `uniform_amp` (the per-element amplitude of a constant-modulus
    /// unit-norm beam, `1/√N`). `backoff_db = 20` is essentially ideal;
    /// `backoff_db = 0` saturates at the uniform drive itself.
    pub fn with_backoff(
        uniform_amp: f64,
        backoff_db: f64,
        smoothness: f64,
        am_pm_deg: f64,
    ) -> Self {
        Self {
            a_sat: uniform_amp * crate::units::amp_from_db(backoff_db),
            smoothness,
            am_pm_max_rad: am_pm_deg.to_radians(),
        }
    }

    /// AM/AM compressed output amplitude for input amplitude `a`.
    pub fn am_am(&self, a: f64) -> f64 {
        if a <= 0.0 {
            return 0.0;
        }
        let r = a / self.a_sat;
        let p2 = 2.0 * self.smoothness;
        a / (1.0 + r.powf(p2)).powf(1.0 / p2)
    }

    /// AM/PM phase rotation for input amplitude `a`, radians.
    pub fn am_pm(&self, a: f64) -> f64 {
        let r2 = (a / self.a_sat) * (a / self.a_sat);
        self.am_pm_max_rad * r2 / (1.0 + r2)
    }

    /// Compression of a single sample, dB (input power over output power;
    /// `0` for an uncompressed sample).
    pub fn compression_db(&self, a: f64) -> f64 {
        if a <= 0.0 {
            return 0.0;
        }
        crate::units::db_from_pow((a / self.am_am(a)).powi(2))
    }

    /// Applies the PA element-wise in place and returns the worst
    /// per-element compression observed, dB. Allocation-free: the per-slot
    /// weight path runs this on the reused radiated-weight scratch.
    ///
    /// Works on `r² = |x|²/a_sat²` so no element needs a square root:
    /// the AM/AM gain is `f = g(a)/a = (1 + (r²)^p)^{-1/(2p)}`, the AM/PM
    /// rotation `φ_max·r²/(1 + r²)`, and `x ← x·cis(φ)·f`. The gain is
    /// `exp(−ln(1 + e^y)/(2p))` with `y = p·ln r²`, and
    /// `ln(1 + e^y) = max(y, 0) + ln(1 + e^{−|y|})` so `e^y` never
    /// overflows; `r²` below the smallest normal double is read as that
    /// double (the gain rounds to 1 there for any `p` above 0.06). Each
    /// chunk of [`BATCH`] elements runs `r²`, the gain, the rotation and
    /// the update as separate passes over stack arrays, one kernel per
    /// pass, so the passes vectorise. Zero elements are left bitwise
    /// untouched. The worst compression, `-20·log10(min f)`, takes one
    /// `log10` per call. Matches [`RappPa::am_am`], [`RappPa::am_pm`] and
    /// [`RappPa::compression_db`] to rounding. Runs the AVX2 twin when the
    /// CPU has AVX2 (DESIGN.md §8, *Twin kernels*).
    #[hot_path]
    pub fn apply(&self, w: &mut [Complex64]) -> f64 {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, the twin's only requirement.
            return unsafe { apply_avx2(self, w) };
        }
        apply_baseline(self, w)
    }
}

/// [`RappPa::apply`] compiled for the baseline target.
fn apply_baseline(pa: &RappPa, w: &mut [Complex64]) -> f64 {
    apply_body(pa, w)
}

/// [`RappPa::apply`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn apply_avx2(pa: &RappPa, w: &mut [Complex64]) -> f64 {
    apply_body(pa, w)
}

/// The passes of [`RappPa::apply`], chunk by chunk.
#[inline(always)]
fn apply_body(pa: &RappPa, w: &mut [Complex64]) -> f64 {
    let inv_sat2 = 1.0 / (pa.a_sat * pa.a_sat);
    let p = pa.smoothness;
    let gain_exp = -0.5 / p;
    let turn = pa.am_pm_max_rad * 0.5 * std::f64::consts::FRAC_1_PI;
    let mut r2 = [0.0; BATCH];
    let mut y = [0.0; BATCH];
    let mut gain = [0.0; BATCH];
    let mut sin = [0.0; BATCH];
    let mut cos = [0.0; BATCH];
    let mut min_gain = 1.0f64;
    for chunk in w.chunks_mut(BATCH) {
        let n = chunk.len();
        debug_assert!(n <= BATCH);
        let (r2, y, gain) = (&mut r2[..n], &mut y[..n], &mut gain[..n]);
        let (sin, cos) = (&mut sin[..n], &mut cos[..n]);
        for (r, x) in r2.iter_mut().zip(chunk.iter()) {
            *r = x.norm_sqr() * inv_sat2;
        }
        // Gain: y = p·ln r², then exp(ln(1 + e^y)·(−1/2p)) with
        // ln(1 + e^y) = max(y, 0) + ln(1 + e^{−|y|}), one kernel per
        // pass.
        for (y, &r) in y.iter_mut().zip(r2.iter()) {
            *y = p * ln(if r < f64::MIN_POSITIVE {
                f64::MIN_POSITIVE
            } else {
                r
            });
        }
        for (g, &y) in gain.iter_mut().zip(y.iter()) {
            *g = exp(-y.abs());
        }
        for (g, &y) in gain.iter_mut().zip(y.iter()) {
            *g = (if y > 0.0 { y } else { 0.0 } + ln(1.0 + *g)) * gain_exp;
        }
        for g in gain.iter_mut() {
            *g = exp(*g);
        }
        // AM/PM: the turn fraction φ/2π, then its sine and cosine.
        for (u, &r) in sin.iter_mut().zip(r2.iter()) {
            *u = turn * r / (1.0 + r);
        }
        for (s, c) in sin.iter_mut().zip(cos.iter_mut()) {
            (*s, *c) = sin_cos_turn(*s);
        }
        let lanes = r2.iter().zip(gain.iter()).zip(sin.iter().zip(cos.iter()));
        for (x, ((&r, &f), (&s, &c))) in chunk.iter_mut().zip(lanes) {
            if r > 0.0 {
                *x *= c64(c, s).scale(f);
                min_gain = min_gain.min(f);
            }
        }
    }
    if min_gain < 1.0 {
        -20.0 * min_gain.log10()
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn pa() -> RappPa {
        RappPa::with_backoff(0.125, 3.0, 3.0, 5.0)
    }

    #[test]
    fn small_signals_pass_linearly() {
        let pa = pa();
        let a = 0.01;
        assert!((pa.am_am(a) - a).abs() / a < 1e-3);
        assert!(pa.am_pm(a).abs() < 1e-3);
        assert!(pa.compression_db(a) < 0.01);
    }

    #[test]
    fn large_signals_saturate_at_a_sat() {
        let pa = pa();
        // Far above saturation the output pins to a_sat.
        assert!((pa.am_am(10.0 * pa.a_sat) - pa.a_sat) / pa.a_sat < 0.02);
        // AM/PM approaches its ceiling.
        assert!(pa.am_pm(10.0 * pa.a_sat) > 0.9 * pa.am_pm_max_rad);
    }

    #[test]
    fn am_am_is_monotone() {
        let pa = pa();
        let mut prev = 0.0;
        for i in 1..200 {
            let out = pa.am_am(i as f64 * 0.005);
            assert!(out >= prev, "AM/AM must be monotone");
            prev = out;
        }
    }

    #[test]
    fn apply_reports_worst_compression() {
        let pa = pa();
        // One strongly-driven element among weak ones.
        let mut w = [c64(0.01, 0.0), c64(0.5, 0.0), c64(0.0, 0.02)];
        let worst = pa.apply(&mut w);
        assert!((worst - pa.compression_db(0.5)).abs() < 1e-9);
        // Weak elements essentially untouched, strong one compressed.
        assert!((w[0].abs() - 0.01).abs() < 1e-4);
        assert!(w[1].abs() < 0.5 * 0.75);
        // Phase rotated on the hot element.
        assert!(w[1].arg().abs() > 1e-3);
    }

    #[test]
    fn apply_matches_the_reference_formulas() {
        // |x| log-swept over [1e-6, 10]·a_sat with random phases, for three
        // knee sharpnesses: apply's |x|² form against am_am/am_pm, and its
        // one-log10 worst compression against the max of compression_db.
        let mut rng = crate::rng::Rng64::seed(21);
        for p in [2.0, 3.0, 4.5] {
            let pa = RappPa::with_backoff(0.125, 3.0, p, 5.0);
            let mut w: Vec<Complex64> = (0..=700)
                .map(|i| {
                    let a = pa.a_sat * 10f64.powf(-6.0 + i as f64 / 100.0);
                    rng.random_phasor().scale(a)
                })
                .collect();
            let input = w.clone();
            let worst = pa.apply(&mut w);
            let mut worst_ref = 0.0f64;
            for (x, y) in input.iter().zip(&w) {
                let a = x.abs();
                let want = x.scale(pa.am_am(a) / a) * Complex64::cis(pa.am_pm(a));
                let err = (*y - want).abs() / want.abs();
                assert!(err <= 1e-13, "p {p}, |x|/a_sat {}: {err:e}", a / pa.a_sat);
                worst_ref = worst_ref.max(pa.compression_db(a));
            }
            assert!(
                (worst - worst_ref).abs() <= 1e-12,
                "p {p}: worst {worst} vs {worst_ref}"
            );
        }
    }

    #[test]
    fn apply_leaves_zero_elements_exactly_zero() {
        let pa = pa();
        let mut w = [Complex64::ZERO, c64(-0.0, -0.0), c64(0.0, -0.0)];
        assert_eq!(pa.apply(&mut w).to_bits(), 0.0f64.to_bits());
        for (y, x) in w
            .iter()
            .zip([Complex64::ZERO, c64(-0.0, -0.0), c64(0.0, -0.0)])
        {
            assert_eq!(
                (y.re.to_bits(), y.im.to_bits()),
                (x.re.to_bits(), x.im.to_bits())
            );
        }
    }

    #[test]
    fn batched_apply_matches_per_element_kernels_bitwise() {
        // Lengths around the batch boundary, with zero (failed) elements of
        // both signs scattered through, against the same kernels composed
        // one element at a time.
        let mut rng = crate::rng::Rng64::seed(22);
        for p in [0.5, 2.0, 3.0] {
            let pa = RappPa::with_backoff(0.125, 3.0, p, 5.0);
            let inv_sat2 = 1.0 / (pa.a_sat * pa.a_sat);
            for n in [0, 1, BATCH - 1, BATCH, BATCH + 1, 272] {
                let input: Vec<Complex64> = (0..n)
                    .map(|i| match i % 7 {
                        3 => Complex64::ZERO,
                        5 => c64(-0.0, -0.0),
                        _ => rng
                            .random_phasor()
                            .scale(pa.a_sat * rng.uniform_in(0.0, 3.0)),
                    })
                    .collect();
                let mut got = input.clone();
                let worst = pa.apply(&mut got);
                let mut min_gain = 1.0f64;
                for (k, (x, y)) in input.iter().zip(&got).enumerate() {
                    let r2 = x.norm_sqr() * inv_sat2;
                    let want = if r2 > 0.0 {
                        let y = p * ln(r2.max(f64::MIN_POSITIVE));
                        let soft = y.max(0.0) + ln(1.0 + exp(-y.abs()));
                        let f = exp(soft * (-0.5 / p));
                        let turn = pa.am_pm_max_rad * 0.5 * std::f64::consts::FRAC_1_PI;
                        let (s, c) = sin_cos_turn(turn * r2 / (1.0 + r2));
                        min_gain = min_gain.min(f);
                        *x * c64(c, s).scale(f)
                    } else {
                        *x
                    };
                    assert_eq!(
                        (y.re.to_bits(), y.im.to_bits()),
                        (want.re.to_bits(), want.im.to_bits()),
                        "p {p}, len {n}, element {k}"
                    );
                }
                let want_worst = if min_gain < 1.0 {
                    -20.0 * min_gain.log10()
                } else {
                    0.0
                };
                assert_eq!(worst.to_bits(), want_worst.to_bits(), "p {p}, len {n}");
            }
        }
    }

    #[test]
    fn apply_twins_agree_bit_for_bit() {
        #[cfg(target_arch = "x86_64")]
        {
            if !std::arch::is_x86_feature_detected!("avx2") {
                eprintln!("skipped: this CPU has no AVX2, so there is no twin to compare");
                return;
            }
            // Seeded drives around saturation with ±0, subnormals and
            // large magnitudes spread through them.
            let special = [0.0, -0.0, 4.9e-324, -2.2e-310, 1e150, -3e149];
            let mut rng = crate::rng::Rng64::seed(23);
            for p in [0.5, 3.0] {
                let pa = RappPa::with_backoff(0.125, 3.0, p, 5.0);
                for n in [0usize, 1, 63, 64, 65, 264] {
                    let w: Vec<Complex64> = (0..n)
                        .map(|i| match i % 5 {
                            2 => c64(
                                special[rng.index(special.len())],
                                special[rng.index(special.len())],
                            ),
                            _ => rng
                                .random_phasor()
                                .scale(pa.a_sat * rng.uniform_in(0.0, 3.0)),
                        })
                        .collect();
                    let (mut base, mut avx2) = (w.clone(), w);
                    let worst_base = apply_baseline(&pa, &mut base);
                    // SAFETY: the CPU supports AVX2 (checked above).
                    let worst_avx2 = unsafe { apply_avx2(&pa, &mut avx2) };
                    let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
                        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
                    };
                    assert_eq!(bits(&base), bits(&avx2), "p {p}, len {n}");
                    assert_eq!(worst_base.to_bits(), worst_avx2.to_bits(), "p {p}, len {n}");
                }
            }
        }
    }

    #[test]
    fn backoff_scales_saturation_point() {
        let loose = RappPa::with_backoff(0.125, 10.0, 3.0, 0.0);
        let tight = RappPa::with_backoff(0.125, 0.0, 3.0, 0.0);
        assert!(loose.a_sat > tight.a_sat);
        assert!(loose.compression_db(0.125) < 0.1);
        assert!(tight.compression_db(0.125) > 1.0);
    }
}
