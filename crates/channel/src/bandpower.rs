//! Band-averaged power of the wideband channel in closed form.
//!
//! Under transmit weights `w` the channel seen at baseband offset `f` is
//! `y(f) = Σ_l a_l·e^{-j2πfτ_l}` (paper Eq. 21, the per-path compound
//! coefficients `a_l` of `GeometricChannel::path_alphas_into`). Its mean
//! power over a uniform comb `f_i = f₀ + i·Δf`, `i < N`, that is symmetric
//! about the carrier (`f₀ = −(N−1)·Δf/2`) is the path Gram form
//!
//! ```text
//! P = (1/N)·Σ_i |y(f_i)|² = Σ_l |a_l|² + 2·Σ_{l<m} Re(a_l·a_m*)·D_N(Δf·(τ_l − τ_m)),
//! D_N(x) = sin(Nπx) / (N·sin πx),
//! ```
//!
//! the Dirichlet kernel (`D_N(k) = (−1)^{k(N−1)}` at an integer `k`). Its
//! pair weights `D_lm` depend only on the comb and the delays, so
//! [`PairWeights`] caches them keyed bit for bit by both: a link whose
//! delays do not move (static, or rotating in place) pays O(L²)
//! multiply-adds per query and no trig, and one whose delays move pays two
//! `cis` per path plus O(L²) flops, against the comb's L·N complex
//! multiply-adds. `|D_lm| ≤ 1`, with equality only where `Δf·Δτ` is an
//! integer: the shrink is the comb loss, the cross terms of paths whose
//! delays differ averaging out across the band.
//!
//! One kernel serves both routes (`GeometricChannel::band_power` and
//! `ChannelSnapshot::band_power`), so they stay bitwise equal.

use crate::channel::{comb_origin_step, is_uniform_comb};
use crate::snapshot::bitwise_eq;
use mmwave_dsp::complex::Complex64;
use mmwave_hotpath::hot_path;
use std::f64::consts::PI;

/// Largest `|N·π·δ|` (`δ` the distance of `Δf·Δτ` to the nearest integer)
/// evaluated by the series branch. Beyond it `|sin πδ| > 0.47/N`, so the
/// phasor ratio loses at most a few ulp per `N` of relative accuracy.
const SERIES_MAX: f64 = 0.5;

/// The Dirichlet-kernel pair weights of one comb and one delay list, upper
/// triangle row by row (`(0,1), (0,2), …, (1,2), …`), with the per-path
/// phasors they are built from. Keyed bit for bit by the comb and the
/// delays; every buffer is reused, so a warmed cache allocates nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct PairWeights {
    freqs: Vec<f64>,
    delays: Vec<f64>,
    weights: Vec<f64>,
    /// Per path `cis(π·Δf·(τ_l − τ₀))` and `cis(N·π·Δf·(τ_l − τ₀))`.
    phasors: Vec<(Complex64, Complex64)>,
}

impl PairWeights {
    /// Mean of `|Σ_l a_l·e^{-j2πf_iτ_l}|²` over the comb `freqs_hz`, from
    /// the per-path `(a_l, τ_l)` (delays in seconds): the path Gram form
    /// of the module docs, its pair weights served from the cache or
    /// rebuilt when the comb or a delay moved. An empty path list or comb
    /// has power 0.
    ///
    /// Precondition, checked by `debug_assert!`: `freqs_hz` is uniform
    /// (every `f_i` within `10⁻⁹·|Δf|` of `f₀ + i·Δf`) and symmetric
    /// about 0 (`|f₀ + f_{N−1}| ≤ 10⁻⁹·|Δf|`).
    #[hot_path]
    pub(crate) fn band_power(&mut self, alphas: &[(Complex64, f64)], freqs_hz: &[f64]) -> f64 {
        if alphas.is_empty() || freqs_hz.is_empty() {
            return 0.0;
        }
        self.refresh(alphas, freqs_hz);
        let mut diag = 0.0;
        let mut cross = 0.0;
        let mut weights = self.weights.iter();
        let mut rest = alphas;
        while let Some((&(al, _), later)) = rest.split_first() {
            diag += al.norm_sqr();
            for (&(am, _), &d) in later.iter().zip(&mut weights) {
                cross += (al.re * am.re + al.im * am.im) * d;
            }
            rest = later;
        }
        diag + 2.0 * cross
    }

    /// Makes the weights hold `freqs_hz` × the delays of `alphas`.
    fn refresh(&mut self, alphas: &[(Complex64, f64)], freqs_hz: &[f64]) {
        let delays_match = self.delays.len() == alphas.len()
            && self
                .delays
                .iter()
                .zip(alphas)
                .all(|(d, &(_, tau))| d.to_bits() == tau.to_bits());
        if delays_match && bitwise_eq(&self.freqs, freqs_hz) {
            return;
        }
        debug_assert!(
            is_uniform_comb(freqs_hz),
            "band-power comb is not uniformly spaced: {freqs_hz:?}"
        );
        debug_assert!(
            is_symmetric_comb(freqs_hz),
            "band-power comb is not symmetric about the carrier: {freqs_hz:?}"
        );
        self.freqs.clear();
        self.freqs.extend_from_slice(freqs_hz);
        self.delays.clear();
        self.delays.extend(alphas.iter().map(|&(_, tau)| tau));
        self.fill();
    }

    /// Rebuilds the pair weights from `self.freqs` and `self.delays`: two
    /// `cis` per path, then per pair either the phasor ratio or, near a
    /// zero of `sin πx`, the series.
    fn fill(&mut self) {
        let n = self.freqs.len() as f64;
        let (_, df) = comb_origin_step(&self.freqs);
        // Delays re-referenced to the first path keep the phasor arguments
        // as small as the delay spread, not the absolute delay.
        let tau0 = self.delays.first().copied().unwrap_or(0.0);
        self.phasors.clear();
        self.phasors.extend(self.delays.iter().map(|&tau| {
            let x = PI * (df * (tau - tau0));
            (Complex64::cis(x), Complex64::cis(n * x))
        }));
        self.weights.clear();
        let (mut delays, mut phasors) = (self.delays.as_slice(), self.phasors.as_slice());
        while let (Some((&tl, later_delays)), Some((&(hl, gl), later_phasors))) =
            (delays.split_first(), phasors.split_first())
        {
            let later = later_delays.iter().zip(later_phasors);
            self.weights.extend(later.map(|(&tm, &(hm, gm))| {
                let x = df * (tl - tm);
                let k = x.round();
                let theta = PI * (x - k);
                if (n * theta).abs() <= SERIES_MAX {
                    // sin(Nπ(k+δ)) / (N·sin(π(k+δ))) = (−1)^{k(N−1)}·D_N(δ).
                    let flip = (k * (n - 1.0)).rem_euclid(2.0) == 1.0;
                    let d = sinc_series(n * theta) / sinc_series(theta);
                    if flip {
                        -d
                    } else {
                        d
                    }
                } else {
                    // Im(g_l·g_m*) = sin(Nπx), Im(h_l·h_m*) = sin(πx).
                    let num = gl.im * gm.re - gl.re * gm.im;
                    let den = hl.im * hm.re - hl.re * hm.im;
                    num / (n * den)
                }
            }));
            (delays, phasors) = (later_delays, later_phasors);
        }
    }
}

/// `sin t / t` for `|t| ≤ SERIES_MAX`, by its Taylor series through `t¹⁶`
/// in nested form (truncation below 10⁻²⁰ at `|t| = 0.5`).
fn sinc_series(t: f64) -> f64 {
    let s = t * t;
    let mut acc = 1.0;
    for denom in [272.0, 210.0, 156.0, 110.0, 72.0, 42.0, 20.0, 6.0] {
        acc = 1.0 - s / denom * acc;
    }
    acc
}

/// True if `freqs` is symmetric about 0 to within `10⁻⁹·|Δf|` (the
/// [`PairWeights::band_power`] precondition besides uniformity).
fn is_symmetric_comb(freqs: &[f64]) -> bool {
    let (f0, df) = comb_origin_step(freqs);
    let last = freqs.last().copied().unwrap_or(0.0);
    (f0 + last).abs() <= 1e-9 * df.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_dsp::rng::Rng64;

    /// The SNR metric's comb: 33 points across 400 MHz, `Δf` = 12.5 MHz.
    fn comb33() -> Vec<f64> {
        let half = 200e6;
        (0..33)
            .map(|i| -half + 2.0 * half * i as f64 / 32.0)
            .collect()
    }

    /// The oracle: the mean comb power with one `cis` per path and point.
    fn comb_power(alphas: &[(Complex64, f64)], freqs: &[f64]) -> f64 {
        freqs
            .iter()
            .map(|&f| {
                alphas
                    .iter()
                    .map(|&(a, tau)| a * Complex64::cis(-2.0 * PI * f * tau))
                    .sum::<Complex64>()
                    .norm_sqr()
            })
            .sum::<f64>()
            / freqs.len() as f64
    }

    fn random_alphas(rng: &mut Rng64, delays_s: &[f64]) -> Vec<(Complex64, f64)> {
        delays_s
            .iter()
            .map(|&tau| {
                let a = Complex64::from_polar(rng.uniform_in(0.1, 1.0), rng.uniform_in(-PI, PI));
                (a, tau)
            })
            .collect()
    }

    /// Worst relative error of the kernel against the comb oracle over
    /// `trials` random amplitude draws on the given delays.
    fn worst_rel_error(delays_s: &[f64], trials: usize) -> f64 {
        let freqs = comb33();
        let mut rng = Rng64::seed(0xD1C1);
        let mut pairs = PairWeights::default();
        let mut worst = 0.0f64;
        for _ in 0..trials {
            let alphas = random_alphas(&mut rng, delays_s);
            let got = pairs.band_power(&alphas, &freqs);
            let want = comb_power(&alphas, &freqs);
            worst = worst.max((got - want).abs() / want);
        }
        worst
    }

    #[test]
    fn one_path_is_its_power() {
        let freqs = comb33();
        let a = Complex64::from_polar(0.37, 1.1);
        let mut pairs = PairWeights::default();
        let got = pairs.band_power(&[(a, 23.4e-9)], &freqs);
        let want = comb_power(&[(a, 23.4e-9)], &freqs);
        assert!((got - want).abs() <= 1e-12 * want, "{got} vs {want}");
        assert_eq!(got, a.norm_sqr());
    }

    #[test]
    fn coincident_delays_add_coherently() {
        assert!(worst_rel_error(&[20e-9, 20e-9], 64) <= 1e-12);
        assert!(worst_rel_error(&[31e-9, 20e-9, 31e-9, 20e-9], 64) <= 1e-12);
    }

    #[test]
    fn near_coincident_delays_take_the_series() {
        assert!(worst_rel_error(&[20e-9, 20e-9 + 1e-15], 64) <= 1e-12);
        assert!(worst_rel_error(&[47e-9 - 1e-15, 20e-9, 47e-9], 64) <= 1e-12);
    }

    #[test]
    fn delays_at_multiples_of_the_comb_period() {
        // Δf = 12.5 MHz, so Δτ = k·80 ns puts sin πx at 0; near it too.
        let p = 1.0 / 12.5e6;
        for k in 1..=3 {
            let k = k as f64;
            assert!(worst_rel_error(&[10e-9, 10e-9 + k * p], 32) <= 1e-12);
            assert!(worst_rel_error(&[10e-9, 10e-9 + k * p + 1e-15], 32) <= 1e-12);
            assert!(worst_rel_error(&[10e-9 + k * p, 10e-9 + 1e-13], 32) <= 1e-12);
        }
    }

    #[test]
    fn random_delay_spreads_match_the_comb() {
        // Scene-like spreads up to 200 ns, including pairs on either side
        // of the series switch.
        let mut rng = Rng64::seed(0x5EED);
        let mut worst = 0.0f64;
        for _ in 0..64 {
            let l = 2 + (rng.uniform_in(0.0, 8.0) as usize);
            let delays: Vec<f64> = (0..l).map(|_| rng.uniform_in(5e-9, 200e-9)).collect();
            worst = worst.max(worst_rel_error(&delays, 4));
        }
        let switch = SERIES_MAX / (33.0 * PI * 12.5e6);
        for s in [0.999, 1.001] {
            worst = worst.max(worst_rel_error(&[30e-9, 30e-9 + s * switch], 16));
        }
        assert!(worst <= 1e-12, "max relative error {worst:e}");
    }

    #[test]
    fn empty_path_list_has_no_power() {
        let mut pairs = PairWeights::default();
        assert_eq!(pairs.band_power(&[], &comb33()), 0.0);
        assert_eq!(comb_power(&[], &comb33()), 0.0);
    }

    #[test]
    fn cache_follows_the_delays_bitwise() {
        // A moved delay rebuilds, an unchanged one reuses; either way the
        // result equals a cold cache's.
        let freqs = comb33();
        let mut rng = Rng64::seed(3);
        let mut warm = PairWeights::default();
        for delays in [
            [20e-9, 35e-9],
            [20e-9, 35e-9],
            [20e-9, 36e-9],
            [20e-9, 35e-9],
        ] {
            let alphas = random_alphas(&mut rng, &delays);
            let got = warm.band_power(&alphas, &freqs);
            let cold = PairWeights::default().band_power(&alphas, &freqs);
            assert_eq!(got.to_bits(), cold.to_bits());
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not symmetric")]
    fn asymmetric_comb_is_rejected() {
        let alphas = [(Complex64::ONE, 1e-9), (Complex64::ONE, 2e-9)];
        PairWeights::default().band_power(&alphas, &[0.0, 1e6, 2e6]);
    }
}
