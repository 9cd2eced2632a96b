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
//! `log10` of the smallest gain. Deterministic, allocation-free, applied
//! in place.

use crate::complex::Complex64;
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
    /// rotation `φ_max·r²/(1 + r²)`, and `x ← x·cis(φ)·f`. The worst
    /// compression, `-20·log10(min f)`, takes one `log10` per call.
    /// Matches [`RappPa::am_am`], [`RappPa::am_pm`] and
    /// [`RappPa::compression_db`] to rounding.
    #[hot_path]
    pub fn apply(&self, w: &mut [Complex64]) -> f64 {
        let inv_sat2 = 1.0 / (self.a_sat * self.a_sat);
        let p = self.smoothness;
        let gain_exp = -1.0 / (2.0 * p);
        let mut min_gain = 1.0f64;
        for x in w.iter_mut() {
            let r2 = x.norm_sqr() * inv_sat2;
            if r2 <= 0.0 {
                continue;
            }
            let f = (1.0 + r2.powf(p)).powf(gain_exp);
            let dphi = self.am_pm_max_rad * r2 / (1.0 + r2);
            *x *= Complex64::cis(dphi).scale(f);
            min_gain = min_gain.min(f);
        }
        if min_gain < 1.0 {
            -20.0 * min_gain.log10()
        } else {
            0.0
        }
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
    fn backoff_scales_saturation_point() {
        let loose = RappPa::with_backoff(0.125, 10.0, 3.0, 0.0);
        let tight = RappPa::with_backoff(0.125, 0.0, 3.0, 0.0);
        assert!(loose.a_sat > tight.a_sat);
        assert!(loose.compression_db(0.125) < 0.1);
        assert!(tight.compression_db(0.125) > 1.0);
    }
}
