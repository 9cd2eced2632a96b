//! Oscillator phase noise as a leaky Wiener process.
//!
//! A free-running LO's phase performs a random walk whose variance rate is
//! set by the Lorentzian linewidth: `σ²(Δt) = 2π·Δν·Δt` rad². A first-order
//! PLL pulls the phase back toward zero, which the leak factor models —
//! the discrete step is
//!
//! ```text
//! φ[k+1] = λ(Δt)·φ[k] + √(2π·Δν·Δt) · n[k],   n ~ N(0,1)
//! ```
//!
//! with `λ(Δt) = exp(-Δt/τ_pll)`. Two observable effects feed the
//! impairment layer:
//!
//! - the accumulated common rotation `e^{jφ}` on each probe's CSI (on top
//!   of the CFO phasor the sounder already applies), and
//! - an intra-symbol SNR ceiling: phase jitter over one OFDM symbol scales
//!   the coherent signal by `e^{-σ²_sym/2}` and converts the lost power
//!   into inter-carrier interference, `P_ici = P·(1 − e^{-σ²_sym})`.
//!
//! All randomness comes from the caller's seeded [`Rng64`]; advancing by
//! the same Δt sequence reproduces the same phase trajectory bit-for-bit.

use crate::complex::Complex64;
use crate::rng::{Rng64, NORMAL_BATCH};
use mmwave_hotpath::hot_path;

/// Leaky-Wiener LO phase state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WienerPhase {
    /// Current accumulated phase, radians (wrapped to `(-π, π]`).
    pub phi_rad: f64,
    /// Lorentzian linewidth `Δν`, Hz — sets the random-walk variance rate.
    pub linewidth_hz: f64,
    /// PLL pull-in time constant, seconds (`∞` = free-running).
    pub pll_tau_s: f64,
}

impl WienerPhase {
    /// Fresh phase state for a LO of the given linewidth with a PLL of
    /// time constant `pll_tau_s`.
    pub fn new(linewidth_hz: f64, pll_tau_s: f64) -> Self {
        Self {
            phi_rad: 0.0,
            linewidth_hz,
            pll_tau_s,
        }
    }

    /// Phase-increment standard deviation over `dt_s`, radians.
    pub fn step_sigma_rad(&self, dt_s: f64) -> f64 {
        (std::f64::consts::TAU * self.linewidth_hz * dt_s.max(0.0)).sqrt()
    }

    /// Advances the walk by `dt_s`, drawing one Gaussian step from `rng`,
    /// and returns the new phase.
    pub fn advance(&mut self, dt_s: f64, rng: &mut Rng64) -> f64 {
        let leak = if self.pll_tau_s.is_finite() && self.pll_tau_s > 0.0 {
            (-dt_s.max(0.0) / self.pll_tau_s).exp()
        } else {
            1.0
        };
        let phi = leak * self.phi_rad + self.step_sigma_rad(dt_s) * rng.normal();
        // Wrap to (-π, π]: the phase is only ever used through e^{jφ}, and
        // wrapping keeps a long free run from losing float precision.
        self.phi_rad = phi - std::f64::consts::TAU * (phi / std::f64::consts::TAU).round();
        self.phi_rad
    }

    /// Intra-symbol phase-jitter variance over one symbol of `t_sym_s`,
    /// rad² — the quantity that sets the coherent loss / ICI split.
    pub fn symbol_jitter_var(&self, t_sym_s: f64) -> f64 {
        std::f64::consts::TAU * self.linewidth_hz * t_sym_s.max(0.0)
    }
}

/// Applies the common rotation `e^{jφ}` plus the intra-symbol ICI penalty
/// to a CSI vector in place: every sample is scaled by the coherent factor
/// `e^{-σ²/2}` and rotated, then receives an independent complex-Gaussian
/// ICI term of power `|h|²·(1 − e^{-σ²})`. Allocation-free.
#[hot_path]
pub fn rotate_with_ici(csi: &mut [Complex64], phi_rad: f64, sigma2_sym: f64, rng: &mut Rng64) {
    let coherent = (-0.5 * sigma2_sym).exp();
    let ici_frac = 1.0 - (-sigma2_sym).exp();
    let rot = Complex64::cis(phi_rad).scale(coherent);
    // `Rng64::awgn(p_ici)` per sample, drawn as batches: the same uniforms
    // in the same order, scaled by the same `√p_ici`.
    let mut noise = [Complex64::ZERO; NORMAL_BATCH];
    for chunk in csi.chunks_mut(NORMAL_BATCH) {
        debug_assert!(chunk.len() <= noise.len());
        let noise = &mut noise[..chunk.len()];
        rng.complex_normals_into(noise);
        for (h, n) in chunk.iter_mut().zip(noise.iter()) {
            let p_ici = h.norm_sqr() * ici_frac;
            *h = *h * rot + n.scale(p_ici.sqrt());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn deterministic_trajectory() {
        let walk = |seed| {
            let mut rng = Rng64::seed(seed);
            let mut pn = WienerPhase::new(200e3, f64::INFINITY);
            (0..64)
                .map(|_| pn.advance(1e-4, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(walk(5), walk(5));
        assert_ne!(walk(5), walk(6));
    }

    #[test]
    fn variance_scales_with_linewidth_and_time() {
        let pn = WienerPhase::new(100e3, f64::INFINITY);
        let s1 = pn.step_sigma_rad(1e-4);
        let s4 = pn.step_sigma_rad(4e-4);
        assert!((s4 / s1 - 2.0).abs() < 1e-12, "σ ∝ √Δt");
        let wide = WienerPhase::new(400e3, f64::INFINITY);
        assert!((wide.step_sigma_rad(1e-4) / s1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pll_leak_bounds_the_walk() {
        let mut rng = Rng64::seed(9);
        let mut free = WienerPhase::new(500e3, f64::INFINITY);
        let mut locked = WienerPhase::new(500e3, 1e-3);
        let mut free_acc = 0.0;
        let mut locked_acc = 0.0;
        for _ in 0..2000 {
            free_acc += free.advance(1e-4, &mut rng).abs();
            locked_acc += locked.advance(1e-4, &mut rng).abs();
        }
        assert!(
            locked_acc < free_acc,
            "PLL-locked phase must wander less ({locked_acc} vs {free_acc})"
        );
    }

    #[test]
    fn rotation_preserves_power_budget() {
        // With zero jitter the rotation is pure: magnitudes unchanged.
        let mut rng = Rng64::seed(3);
        let mut csi = vec![c64(1.0, 0.0); 32];
        rotate_with_ici(&mut csi, 0.7, 0.0, &mut rng);
        for h in &csi {
            assert!((h.abs() - 1.0).abs() < 1e-12);
            assert!((h.arg() - 0.7).abs() < 1e-12);
        }
        // With jitter, mean power is approximately preserved (coherent
        // part shrinks, ICI makes up the difference in expectation).
        let sigma2 = 0.2f64;
        let mut csi = vec![c64(1.0, 0.0); 4096];
        rotate_with_ici(&mut csi, 0.0, sigma2, &mut rng);
        let mean_pow: f64 = csi.iter().map(|h| h.norm_sqr()).sum::<f64>() / csi.len() as f64;
        assert!((mean_pow - 1.0).abs() < 0.05, "mean power {mean_pow}");
        // And the coherent mean shrank by e^{-σ²/2}.
        let mean: Complex64 = csi
            .iter()
            .fold(Complex64::ZERO, |a, &b| a + b)
            .scale(1.0 / csi.len() as f64);
        assert!((mean.abs() - (-0.5 * sigma2).exp()).abs() < 0.05);
    }

    #[test]
    fn batched_ici_equals_per_sample_awgn() {
        // Lengths around the batch size, and a probe's 264 subcarriers.
        for n in [1, 63, 64, 65, 264] {
            let csi: Vec<Complex64> = (0..n)
                .map(|k| c64(1.0 + 0.01 * k as f64, -0.5 + 0.003 * k as f64))
                .collect();
            let (phi, sigma2) = (0.4, 0.05);
            let mut rng = Rng64::seed(17);
            let mut oracle_rng = rng.clone();
            let mut got = csi.clone();
            rotate_with_ici(&mut got, phi, sigma2, &mut rng);
            let rot = Complex64::cis(phi).scale((-0.5 * sigma2).exp());
            let ici_frac = 1.0 - (-sigma2).exp();
            for (g, h) in got.iter().zip(&csi) {
                let want = *h * rot + oracle_rng.awgn(h.norm_sqr() * ici_frac);
                assert_eq!(g.re.to_bits(), want.re.to_bits(), "len {n}");
                assert_eq!(g.im.to_bits(), want.im.to_bits(), "len {n}");
            }
            assert_eq!(rng.uniform().to_bits(), oracle_rng.uniform().to_bits());
        }
    }

    #[test]
    fn phase_stays_wrapped() {
        let mut rng = Rng64::seed(11);
        let mut pn = WienerPhase::new(5e6, f64::INFINITY);
        for _ in 0..5000 {
            let phi = pn.advance(1e-3, &mut rng);
            assert!(phi.abs() <= std::f64::consts::PI + 1e-9);
        }
    }
}
