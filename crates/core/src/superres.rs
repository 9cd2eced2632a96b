//! Super-resolution per-beam channel decomposition (paper §4.3, Eq. 21–23).
//!
//! A single-RF-chain multi-beam superposes all beams into one received
//! signal; maintenance needs the *per-beam* amplitudes `α_k` back. The
//! paper fits a sinc model over the measured CIR with L2 regularization,
//! exploiting that the **relative** ToFs between beams are known from
//! training and drift slowly.
//!
//! We solve the same convex program in the frequency domain, where the
//! band-limited sinc of Eq. 22 is exactly a complex exponential across the
//! sounded comb:
//!
//! ```text
//! csi(f) = Σ_k α_k · e^{-j2πf(τ₀ + Δτ_k)} + noise
//! ```
//!
//! with `Δτ_k` known and the bulk delay `τ₀` (plus small relative-ToF
//! jitter) recovered by a fine grid search, each candidate scored by its
//! ridge-regularized least-squares residual (Eq. 23). The two domains are
//! unitarily equivalent (Parseval), so this *is* the paper's estimator —
//! just without the detour through an interpolated CIR.
//!
//! **Why the grid search is cheap.** The dictionary factors as
//! `S(τ₀) = D(τ₀)·S₀` with `D` a unit-modulus diagonal, so the Gram
//! `G = SᴴS`, `G_kl = Σᵢ e^{-j2πfᵢ(Δτ_l − Δτ_k)}`, does not depend on τ₀.
//! One relative-delay set therefore needs one K×K Cholesky factor of
//! `G + λM·I` for its whole τ₀ sweep. Per candidate, only the correlation
//! `b = Sᴴy`, `b_k = Σᵢ c_ki·pᵢ` with `c_ki = yᵢ·e^{j2πfᵢΔτ_k}` and
//! `pᵢ = e^{j2πfᵢτ₀}`, changes; stepping τ₀ by δ advances every `pᵢ` by
//! the fixed phasor `e^{j2πfᵢδ}`, so the sweep evaluates no trig at all.
//! α is a K×K triangular solve and the residual is closed-form,
//! `‖y − Sα‖² = ‖y‖² − 2Re(αᴴb) + αᴴGα`.

use mmwave_dsp::complex::Complex64;
use mmwave_dsp::fft::FftScratch;
use mmwave_dsp::linalg::{cholesky_factor_into, cholesky_solve_factored, CMatrix};
use mmwave_phy::chanest::ProbeObservation;
use std::cmp::Ordering;
use std::f64::consts::PI;

/// Configuration of the super-resolution solver.
#[derive(Clone, Debug)]
pub struct SuperResConfig {
    /// Ridge regularization weight λ of Eq. 23.
    pub lambda: f64,
    /// Bulk-delay search: ± this many CIR taps around the coarse estimate.
    pub tau0_search_taps: f64,
    /// Bulk-delay search resolution, fraction of a tap.
    pub tau0_step_taps: f64,
    /// Relative-ToF jitter candidates tried per non-reference beam, ns.
    pub jitter_ns: Vec<f64>,
}

impl Default for SuperResConfig {
    fn default() -> Self {
        Self {
            lambda: 1e-3,
            tau0_search_taps: 1.5,
            tau0_step_taps: 0.05,
            jitter_ns: vec![-0.4, -0.2, 0.0, 0.2, 0.4],
        }
    }
}

/// Result of one per-beam decomposition.
#[derive(Clone, Debug)]
pub struct PerBeamEstimate {
    /// Complex per-beam amplitudes `α_k` (order matches the input delays).
    pub alphas: Vec<Complex64>,
    /// Per-beam received powers `|α_k|²` (mW in sounder units).
    pub powers_mw: Vec<f64>,
    /// Residual `‖csi − S·α‖²` of the best fit, evaluated in closed form
    /// (`‖y‖² − 2Re(αᴴb) + αᴴGα`), so exact up to rounding of order
    /// `ε·‖y‖²`.
    pub residual: f64,
    /// Recovered bulk delay τ₀, ns.
    pub tau0_ns: f64,
    /// Relative delays actually used after jitter refinement, ns.
    pub rel_delays_ns: Vec<f64>,
}

impl PerBeamEstimate {
    /// Per-beam powers in dB (floored at −200 dB).
    // xtask-allow(hot-path-closure): one short per-beam vector per estimate on the maintenance cadence
    pub fn powers_db(&self) -> Vec<f64> {
        self.powers_mw
            .iter()
            .map(|&p| 10.0 * p.max(1e-20).log10())
            .collect()
    }
}

/// Complex vectors stored as separate real and imaginary lanes, so the
/// per-candidate kernels run on packed arithmetic. Several equal-length
/// rows may be stacked back to back (beam-major).
#[derive(Clone, Debug, Default)]
struct Lanes {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Lanes {
    fn clear(&mut self) {
        self.re.clear();
        self.im.clear();
    }

    fn push(&mut self, v: Complex64) {
        self.re.push(v.re);
        self.im.push(v.im);
    }

    /// Makes room for `n` more entries without growth slack: the scratch
    /// is sized once and then lives as long as its controller.
    fn reserve(&mut self, n: usize) {
        self.re.reserve_exact(n);
        self.im.reserve_exact(n);
    }

    /// Row `k` of `m` entries.
    fn row(&self, k: usize, m: usize) -> (&[f64], &[f64]) {
        debug_assert!((k + 1) * m <= self.re.len() && self.re.len() == self.im.len());
        let (start, end) = (k * m, (k + 1) * m);
        (&self.re[start..end], &self.im[start..end])
    }

    fn all(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }

    /// Appends `e^{j·wᵢ·delay_ns}` per subcarrier (`w` in rad/ns).
    fn extend_phasors(&mut self, w: &[f64], delay_ns: f64) {
        self.reserve(w.len());
        for &wi in w {
            self.push(Complex64::cis(wi * delay_ns));
        }
    }

    /// Appends `yᵢ·xᵢ` for the row `x`.
    fn extend_product(&mut self, y: &[Complex64], (xr, xi): (&[f64], &[f64])) {
        self.reserve(y.len());
        for ((&yi, &r), &i) in y.iter().zip(xr).zip(xi) {
            self.push(yi * Complex64::new(r, i));
        }
    }

    /// Overwrites row `k` of `m` entries with `src`.
    fn set_row(&mut self, k: usize, m: usize, src: &Lanes) {
        debug_assert!((k + 1) * m <= self.re.len() && src.re.len() == m);
        self.re[k * m..(k + 1) * m].copy_from_slice(&src.re);
        self.im[k * m..(k + 1) * m].copy_from_slice(&src.im);
    }

    /// Multiplies every entry by the matching entry of `u`.
    fn advance(&mut self, u: &Lanes) {
        for (((pr, pi), &ur), &ui) in self
            .re
            .iter_mut()
            .zip(self.im.iter_mut())
            .zip(&u.re)
            .zip(&u.im)
        {
            let (r, i) = (*pr, *pi);
            *pr = r * ur - i * ui;
            *pi = r * ui + i * ur;
        }
    }
}

/// `Σᵢ aᵢ·bᵢ` over split lanes, with `a` conjugated when `CONJ_A`.
fn dot<const CONJ_A: bool>((ar, ai): (&[f64], &[f64]), (br, bi): (&[f64], &[f64])) -> Complex64 {
    let sign = if CONJ_A { -1.0 } else { 1.0 };
    Complex64::new(
        lane_sum(ar, br, ai, bi, -sign),
        lane_sum(ar, bi, ai, br, sign),
    )
}

/// `Σᵢ (xᵢ·yᵢ + s·uᵢ·vᵢ)` over four interleaved partial sums: the lanes
/// carry no dependency on one another, so the loop pipelines and packs.
fn lane_sum(x: &[f64], y: &[f64], u: &[f64], v: &[f64], s: f64) -> f64 {
    debug_assert!(x.len() == y.len() && x.len() == u.len() && x.len() == v.len());
    let mut acc = [0.0f64; 4];
    let (x4, y4, u4, v4) = (
        x.chunks_exact(4),
        y.chunks_exact(4),
        u.chunks_exact(4),
        v.chunks_exact(4),
    );
    let tail =
        (x4.remainder().iter().zip(y4.remainder())).zip(u4.remainder().iter().zip(v4.remainder()));
    for ((xc, yc), (uc, vc)) in x4.zip(y4).zip(u4.zip(v4)) {
        for l in 0..4 {
            acc[l] += xc[l] * yc[l] + s * uc[l] * vc[l];
        }
    }
    for ((&xi, &yi), (&ui, &vi)) in tail {
        acc[0] += xi * yi + s * ui * vi;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Gram entry `G_kl = Σᵢ e_{l,i}*·e_{k,i}` from the beam rows
/// `e_k = e^{j2πfΔτ_k}` and `e_l`: the τ₀ phasors cancel in `S_ikᴴ·S_il`.
fn gram_entry(ek: (&[f64], &[f64]), el: (&[f64], &[f64])) -> Complex64 {
    dot::<true>(el, ek)
}

/// The τ₀-invariant normal equations of one relative-delay set: the Gram
/// `G = SᴴS` and the Cholesky factor of `G + λM·I`.
#[derive(Clone, Debug, Default)]
struct NormalEquations {
    gram: CMatrix,
    shifted: CMatrix,
    factor: CMatrix,
    /// `false` when `G + λM·I` is not numerically positive definite
    /// (λ = 0 with coincident delays); every candidate then scores α = 0.
    factored: bool,
}

impl NormalEquations {
    /// Factors `G + ridge·I` from the current Gram.
    fn refactor(&mut self, ridge: f64) {
        let k = self.gram.rows();
        self.shifted.reset(k, k);
        self.shifted
            .as_mut_slice()
            .copy_from_slice(self.gram.as_slice());
        for d in self.shifted.as_mut_slice().iter_mut().step_by(k + 1) {
            *d += Complex64::new(ridge, 0.0);
        }
        self.factored = cholesky_factor_into(&self.shifted, &mut self.factor).is_ok();
    }

    /// Solves for α given the correlation `b` (written into `alpha`) and
    /// returns the closed-form residual `‖y‖² − 2Re(αᴴb) + αᴴGα`.
    fn solve_and_score(&self, b: &[Complex64], y_energy: f64, alpha: &mut Vec<Complex64>) -> f64 {
        let k = b.len();
        debug_assert_eq!(self.gram.as_slice().len(), k * k);
        alpha.clear();
        if self.factored {
            alpha.extend_from_slice(b);
            cholesky_solve_factored(&self.factor, alpha);
        } else {
            alpha.resize(k, Complex64::ZERO);
        }
        let mut cross = 0.0;
        let mut quad = 0.0;
        for (row, (&a, &bk)) in self
            .gram
            .as_slice()
            .chunks_exact(k)
            .zip(alpha.iter().zip(b))
        {
            cross += (a.conj() * bk).re;
            let mut g_alpha = Complex64::ZERO;
            for (&g, &al) in row.iter().zip(alpha.iter()) {
                g_alpha += g * al;
            }
            quad += (a.conj() * g_alpha).re;
        }
        y_energy - 2.0 * cross + quad
    }
}

/// Reusable state of [`estimate_per_beam_with`]: every buffer the fit
/// needs, sized on first use and reused thereafter, so a warmed scratch
/// makes the fit allocation-free apart from its owned outputs.
#[derive(Clone, Debug, Default)]
pub struct SuperResScratch {
    /// CIR and transform buffers of the coarse peak-delay estimate.
    cir: Vec<Complex64>,
    fft: FftScratch,
    /// `2π·fᵢ` in rad/ns per sounded subcarrier.
    w: Vec<f64>,
    /// Rows `e_k = e^{j2πfᵢΔτ_k}` of the current delay set.
    e: Lanes,
    /// Rows `c_k = yᵢ·e^{j2πfᵢΔτ_k}`.
    c: Lanes,
    normal: NormalEquations,
    /// One jitter trial's replacement `e`/`c` rows and the normal
    /// equations of the trial delay set.
    trial_e: Lanes,
    trial_c: Lanes,
    trial: NormalEquations,
    /// Bulk-delay phasors `e^{j2πfᵢτ₀}` and the per-step advance.
    p: Lanes,
    u: Lanes,
    /// Correlation `b = Sᴴy` of the current candidate, and of the current
    /// delay set at the chosen τ₀.
    b: Vec<Complex64>,
    b_best: Vec<Complex64>,
    alpha: Vec<Complex64>,
    alpha_best: Vec<Complex64>,
    /// Relative delays in use (jitter refinement edits them in place).
    rel: Vec<f64>,
}

impl SuperResScratch {
    /// Sets `p` to the exact phasors of bulk delay `tau0_ns`.
    fn seed_phasors(&mut self, tau0_ns: f64) {
        self.p.clear();
        self.p.extend_phasors(&self.w, tau0_ns);
    }

    /// Fills `b` with `b_k = Σᵢ c_ki·pᵢ` for the current delay set.
    fn correlate(&mut self) {
        let m = self.w.len();
        self.b.clear();
        for k in 0..self.rel.len() {
            self.b.push(dot::<false>(self.c.row(k, m), self.p.all()));
        }
    }

    /// Loads the delay set `self.rel`: phasor rows, correlations with `y`,
    /// the Gram and its factor.
    fn load_delay_set(&mut self, y: &[Complex64], ridge: f64) {
        let m = y.len();
        let n = self.rel.len();
        self.e.clear();
        self.c.clear();
        for (k, &d) in self.rel.iter().enumerate() {
            self.e.extend_phasors(&self.w, d);
            self.c.extend_product(y, self.e.row(k, m));
        }
        let g = &mut self.normal.gram;
        g.reset(n, n);
        debug_assert_eq!(g.as_slice().len(), n * n);
        for i in 0..n {
            for j in i..n {
                let v = gram_entry(self.e.row(i, m), self.e.row(j, m));
                g[(i, j)] = v;
                g[(j, i)] = v.conj();
            }
        }
        self.normal.refactor(ridge);
    }

    /// Builds the trial delay set with beam `k` moved to `delay_ns` (its
    /// rows in `trial_e`/`trial_c`, its normal equations in `trial`) and
    /// the trial correlation in `b`.
    fn load_trial(&mut self, y: &[Complex64], k: usize, delay_ns: f64, ridge: f64) {
        let m = y.len();
        let n = self.rel.len();
        self.trial_e.clear();
        self.trial_e.extend_phasors(&self.w, delay_ns);
        self.trial_c.clear();
        self.trial_c.extend_product(y, self.trial_e.all());
        let g = &mut self.trial.gram;
        g.reset(n, n);
        debug_assert!(k < n && self.b_best.len() == n);
        g.as_mut_slice()
            .copy_from_slice(self.normal.gram.as_slice());
        // Entries are evaluated with the operands in the order
        // `load_delay_set` uses (upper triangle, row beam first), so an
        // unchanged delay reproduces the current Gram bit for bit.
        let trial = self.trial_e.all();
        for l in 0..n {
            let (upper, (i, j)) = match l.cmp(&k) {
                Ordering::Less => (gram_entry(self.e.row(l, m), trial), (l, k)),
                Ordering::Equal => (gram_entry(trial, trial), (k, k)),
                Ordering::Greater => (gram_entry(trial, self.e.row(l, m)), (k, l)),
            };
            g[(i, j)] = upper;
            g[(j, i)] = upper.conj();
        }
        self.trial.refactor(ridge);
        self.b.clear();
        self.b.extend_from_slice(&self.b_best);
        self.b[k] = dot::<false>(self.trial_c.all(), self.p.all());
    }

    /// Adopts the trial delay set built by [`Self::load_trial`].
    fn commit_trial(&mut self, k: usize, delay_ns: f64) {
        debug_assert!(k < self.rel.len());
        let m = self.w.len();
        self.e.set_row(k, m, &self.trial_e);
        self.c.set_row(k, m, &self.trial_c);
        std::mem::swap(&mut self.normal, &mut self.trial);
        self.keep_best();
        self.rel[k] = delay_ns;
    }

    /// Records the current candidate's correlation and amplitudes as the
    /// best so far.
    fn keep_best(&mut self) {
        self.b_best.clear();
        self.b_best.extend_from_slice(&self.b);
        self.alpha_best.clear();
        self.alpha_best.extend_from_slice(&self.alpha);
    }
}

/// Decomposes one multi-beam probe into per-beam complex amplitudes, given
/// the beams' relative delays (first entry is the reference, typically 0).
/// One-shot form of [`estimate_per_beam_with`].
pub fn estimate_per_beam(
    obs: &ProbeObservation,
    rel_delays_ns: &[f64],
    cfg: &SuperResConfig,
) -> PerBeamEstimate {
    estimate_per_beam_with(&mut SuperResScratch::default(), obs, rel_delays_ns, cfg)
}

/// [`estimate_per_beam`] through a caller-owned [`SuperResScratch`]. Once
/// the scratch has seen a probe of the same shape, the fit allocates only
/// the vectors of the returned [`PerBeamEstimate`].
///
/// Search: the coarse CIR peak is anchored to each beam in turn and the
/// bulk delay τ₀ is swept ± `tau0_search_taps` around it (one Gram factor
/// serves all anchors); the winner is re-scored with exact phasors, and a
/// greedy pass then tries each jitter offset on each non-reference beam's
/// relative delay, keeping strict improvements.
// xtask-allow(hot-path-closure): the per-beam decomposition owns its outputs (amplitudes, powers, delays) by contract; it runs per probe on the maintenance cadence
pub fn estimate_per_beam_with(
    scratch: &mut SuperResScratch,
    obs: &ProbeObservation,
    rel_delays_ns: &[f64],
    cfg: &SuperResConfig,
) -> PerBeamEstimate {
    assert!(!rel_delays_ns.is_empty(), "need at least one beam delay");
    assert!(
        obs.csi.len() >= rel_delays_ns.len(),
        "underdetermined: fewer subcarriers than beams"
    );
    assert!(cfg.lambda >= 0.0, "ridge parameter must be non-negative");
    debug_assert_eq!(obs.freqs_hz.len(), obs.csi.len());
    let y = &obs.csi;
    // Scale λ with the dictionary's column energy (M subcarriers).
    let ridge = cfg.lambda * y.len() as f64;
    let y_energy: f64 = y.iter().map(|v| v.norm_sqr()).sum();
    let s = scratch;
    s.w.clear();
    s.w.extend(obs.freqs_hz.iter().map(|&f| 2.0 * PI * f * 1e-9));
    s.rel.clear();
    s.rel.extend_from_slice(rel_delays_ns);
    s.load_delay_set(y, ridge);

    let tap_ns = 1.0 / (obs.comb_spacing_hz().max(1.0) * y.len() as f64) * 1e9;
    s.u.clear();
    s.u.extend_phasors(&s.w, cfg.tau0_step_taps * tap_ns);
    // The CIR magnitude peak belongs to whichever beam currently dominates —
    // not necessarily the reference (e.g. when the LOS beam is blocked the
    // peak jumps to a reflection). Try anchoring it to each beam's relative
    // delay and grid-search the bulk delay around every candidate.
    let peak_ns = crate::training::estimate_delay_ns_with(obs, &mut s.cir, &mut s.fft);
    let mut best: Option<f64> = None;
    let mut best_tau0 = peak_ns;
    for &anchor in rel_delays_ns {
        let coarse_ns = peak_ns - anchor;
        let mut t = -cfg.tau0_search_taps;
        s.seed_phasors(coarse_ns + t * tap_ns);
        while t <= cfg.tau0_search_taps {
            s.correlate();
            let residual = s.normal.solve_and_score(&s.b, y_energy, &mut s.alpha);
            if best.is_none_or(|b| residual < b) {
                best = Some(residual);
                best_tau0 = coarse_ns + t * tap_ns;
            }
            s.p.advance(&s.u);
            t += cfg.tau0_step_taps;
        }
    }
    // Re-score the winner with exact phasors: the jitter trials below use
    // the same ones, so an unchanged delay set reproduces it bit for bit.
    s.seed_phasors(best_tau0);
    s.correlate();
    let mut best_residual = s.normal.solve_and_score(&s.b, y_energy, &mut s.alpha);
    s.keep_best();
    // Pass 2: greedy per-beam relative-ToF jitter refinement.
    for k in 1..s.rel.len() {
        let nominal = s.rel[k];
        for &j in &cfg.jitter_ns {
            s.load_trial(y, k, nominal + j, ridge);
            let residual = s.trial.solve_and_score(&s.b, y_energy, &mut s.alpha);
            if residual < best_residual {
                best_residual = residual;
                s.commit_trial(k, nominal + j);
            }
        }
    }
    let alphas = s.alpha_best.clone();
    PerBeamEstimate {
        powers_mw: alphas.iter().map(|a| a.norm_sqr()).collect(),
        alphas,
        residual: best_residual,
        tau0_ns: best_tau0,
        rel_delays_ns: s.rel.clone(),
    }
}

#[cfg(test)]
mod direct {
    //! The direct solver the Gram path replaced, kept as the test oracle:
    //! every candidate builds its M×K dictionary `S(τ₀)` and runs a full
    //! ridge least-squares solve, and the residual is summed explicitly.

    use super::{PerBeamEstimate, SuperResConfig};
    use mmwave_dsp::complex::Complex64;
    use mmwave_dsp::linalg::{ridge_least_squares, CMatrix};
    use mmwave_phy::chanest::ProbeObservation;
    use std::f64::consts::PI;

    /// [`super::estimate_per_beam`] with the same search order and
    /// tie-breaking, scoring each candidate by [`fit_at`].
    pub fn estimate_per_beam(
        obs: &ProbeObservation,
        rel_delays_ns: &[f64],
        cfg: &SuperResConfig,
    ) -> PerBeamEstimate {
        let cf: Vec<f64> = obs.freqs_hz.iter().map(|&f| -2.0 * PI * f).collect();
        let tap_ns = 1.0 / (obs.comb_spacing_hz().max(1.0) * obs.csi.len() as f64) * 1e9;
        let peak_ns = crate::training::estimate_delay_ns(obs);
        let mut best: Option<(Vec<Complex64>, f64)> = None;
        let mut best_tau0 = peak_ns;
        for &anchor in rel_delays_ns {
            let coarse_ns = peak_ns - anchor;
            let mut t = -cfg.tau0_search_taps;
            while t <= cfg.tau0_search_taps {
                let tau0 = coarse_ns + t * tap_ns;
                let fit = fit_at(obs, &cf, tau0, rel_delays_ns, cfg.lambda);
                if best.as_ref().is_none_or(|b| fit.1 < b.1) {
                    best = Some(fit);
                    best_tau0 = tau0;
                }
                t += cfg.tau0_step_taps;
            }
        }
        let mut best = best.expect("at least one candidate");
        let mut rel = rel_delays_ns.to_vec();
        for k in 1..rel.len() {
            let nominal = rel[k];
            for &j in &cfg.jitter_ns {
                let mut trial = rel.clone();
                trial[k] = nominal + j;
                let fit = fit_at(obs, &cf, best_tau0, &trial, cfg.lambda);
                if fit.1 < best.1 {
                    best = fit;
                    rel[k] = nominal + j;
                }
            }
        }
        let alphas = best.0;
        PerBeamEstimate {
            powers_mw: alphas.iter().map(|a| a.norm_sqr()).collect(),
            alphas,
            residual: best.1,
            tau0_ns: best_tau0,
            rel_delays_ns: rel,
        }
    }

    /// Ridge LS fit for fixed delays over the explicit dictionary
    /// `S_ik = cis(-2π·fᵢ·(τ₀+Δτ_k)·1e-9)`; returns (α, ‖y − S·α‖²).
    fn fit_at(
        obs: &ProbeObservation,
        cf: &[f64],
        tau0_ns: f64,
        rel_delays_ns: &[f64],
        lambda: f64,
    ) -> (Vec<Complex64>, f64) {
        let (rows, cols) = (obs.csi.len(), rel_delays_ns.len());
        let mut s = CMatrix::zeros(rows, cols);
        for (row, &cfi) in s.as_mut_slice().chunks_exact_mut(cols).zip(cf) {
            for (slot, &dk) in row.iter_mut().zip(rel_delays_ns) {
                *slot = Complex64::cis(cfi * ((tau0_ns + dk) * 1e-9));
            }
        }
        let alphas = ridge_least_squares(&s, &obs.csi, lambda * obs.csi.len() as f64)
            .unwrap_or_else(|_| vec![Complex64::ZERO; cols]);
        let residual = s
            .mul_vec(&alphas)
            .iter()
            .zip(&obs.csi)
            .map(|(&fit, &y)| (y - fit).norm_sqr())
            .sum();
        (alphas, residual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_dsp::complex::c64;
    use mmwave_dsp::rng::Rng64;

    /// Builds a synthetic probe: α_k at delays τ0+Δτ_k over a 264-pt comb
    /// (400 MHz / RB-spacing), with optional noise and CFO phase.
    fn synth_probe(
        alphas: &[(f64, f64)], // (amplitude, phase)
        rel_delays_ns: &[f64],
        tau0_ns: f64,
        noise_pow: f64,
        rng: &mut Rng64,
    ) -> ProbeObservation {
        let n = 264;
        let spacing = 12.0 * 120e3;
        let freqs: Vec<f64> = (0..n)
            .map(|i| (i as f64 - (n as f64 - 1.0) / 2.0) * spacing)
            .collect();
        synth_probe_on(freqs, alphas, rel_delays_ns, tau0_ns, noise_pow, rng)
    }

    /// [`synth_probe`] over an arbitrary sounded comb.
    fn synth_probe_on(
        freqs: Vec<f64>,
        alphas: &[(f64, f64)],
        rel_delays_ns: &[f64],
        tau0_ns: f64,
        noise_pow: f64,
        rng: &mut Rng64,
    ) -> ProbeObservation {
        let cfo = rng.random_phasor();
        let csi: Vec<Complex64> = freqs
            .iter()
            .map(|&f| {
                let mut acc = Complex64::ZERO;
                for (k, &(a, ph)) in alphas.iter().enumerate() {
                    let tau = (tau0_ns + rel_delays_ns[k]) * 1e-9;
                    acc += Complex64::from_polar(a, ph) * Complex64::cis(-2.0 * PI * f * tau);
                }
                cfo * acc + rng.awgn(noise_pow)
            })
            .collect();
        ProbeObservation {
            csi,
            freqs_hz: freqs,
            noise_power_mw: noise_pow.max(1e-18),
        }
    }

    #[test]
    fn recovers_two_beam_powers_well_separated() {
        let mut rng = Rng64::seed(1);
        let rel = [0.0, 10.0]; // 10 ns apart (4 taps at 2.6 ns)
        let obs = synth_probe(&[(1.0, 0.3), (0.5, -1.0)], &rel, 25.0, 1e-6, &mut rng);
        let est = estimate_per_beam(&obs, &rel, &SuperResConfig::default());
        assert!(
            (est.powers_mw[0] - 1.0).abs() < 0.05,
            "p0 {}",
            est.powers_mw[0]
        );
        assert!(
            (est.powers_mw[1] - 0.25).abs() < 0.03,
            "p1 {}",
            est.powers_mw[1]
        );
        assert!((est.tau0_ns - 25.0).abs() < 0.5, "τ0 {}", est.tau0_ns);
    }

    #[test]
    fn resolves_below_fourier_limit() {
        // Fig. 11a's claim: accurate per-beam power even when ΔToF is below
        // the 2.5 ns bandwidth resolution, because relative ToF is known.
        let mut rng = Rng64::seed(2);
        for dt in [0.8, 1.2, 1.8] {
            let rel = [0.0, dt];
            let obs = synth_probe(&[(1.0, 0.0), (0.6, 1.1)], &rel, 30.0, 1e-6, &mut rng);
            let est = estimate_per_beam(&obs, &rel, &SuperResConfig::default());
            assert!(
                (est.powers_mw[0] - 1.0).abs() < 0.1,
                "Δτ={dt}: p0 {}",
                est.powers_mw[0]
            );
            assert!(
                (est.powers_mw[1] - 0.36).abs() < 0.1,
                "Δτ={dt}: p1 {}",
                est.powers_mw[1]
            );
        }
    }

    #[test]
    fn cfo_phase_does_not_break_power_estimates() {
        let rel = [0.0, 6.0];
        for seed in 0..5 {
            let mut rng = Rng64::seed(seed);
            let obs = synth_probe(&[(1.0, 0.0), (0.4, 2.0)], &rel, 20.0, 1e-6, &mut rng);
            let est = estimate_per_beam(&obs, &rel, &SuperResConfig::default());
            assert!((est.powers_mw[0] - 1.0).abs() < 0.05);
            assert!((est.powers_mw[1] - 0.16).abs() < 0.05);
        }
    }

    #[test]
    fn jitter_refinement_absorbs_drift() {
        // True relative delay drifted 0.4 ns from the trained value.
        let mut rng = Rng64::seed(3);
        let true_rel = [0.0, 8.4];
        let trained_rel = [0.0, 8.0];
        let obs = synth_probe(&[(1.0, 0.0), (0.7, -0.5)], &true_rel, 22.0, 1e-6, &mut rng);
        let est = estimate_per_beam(&obs, &trained_rel, &SuperResConfig::default());
        assert!(
            (est.rel_delays_ns[1] - 8.4).abs() < 0.21,
            "refined to {}",
            est.rel_delays_ns[1]
        );
        assert!((est.powers_mw[1] - 0.49).abs() < 0.06);
    }

    #[test]
    fn noise_floor_limits_but_does_not_bias_much() {
        let mut rng = Rng64::seed(4);
        let rel = [0.0, 10.0];
        // SNR ≈ 20 dB per subcarrier.
        let obs = synth_probe(&[(1.0, 0.0), (0.5, 0.7)], &rel, 25.0, 0.01, &mut rng);
        let est = estimate_per_beam(&obs, &rel, &SuperResConfig::default());
        assert!((est.powers_mw[0] - 1.0).abs() < 0.15);
        assert!((est.powers_mw[1] - 0.25).abs() < 0.1);
    }

    #[test]
    fn three_beam_decomposition() {
        let mut rng = Rng64::seed(5);
        let rel = [0.0, 5.0, 13.0];
        let obs = synth_probe(
            &[(1.0, 0.0), (0.6, 1.0), (0.3, -2.0)],
            &rel,
            28.0,
            1e-6,
            &mut rng,
        );
        let est = estimate_per_beam(&obs, &rel, &SuperResConfig::default());
        assert!((est.powers_mw[0] - 1.0).abs() < 0.08);
        assert!((est.powers_mw[1] - 0.36).abs() < 0.08);
        assert!((est.powers_mw[2] - 0.09).abs() < 0.05);
    }

    #[test]
    fn single_beam_degenerates_to_power_measurement() {
        let mut rng = Rng64::seed(6);
        let obs = synth_probe(&[(0.8, 0.4)], &[0.0], 35.0, 1e-6, &mut rng);
        let est = estimate_per_beam(&obs, &[0.0], &SuperResConfig::default());
        assert!((est.powers_mw[0] - 0.64).abs() < 0.03);
    }

    #[test]
    fn powers_db_conversion() {
        let e = PerBeamEstimate {
            alphas: vec![c64(1.0, 0.0)],
            powers_mw: vec![0.1],
            residual: 0.0,
            tau0_ns: 0.0,
            rel_delays_ns: vec![0.0],
        };
        assert!((e.powers_db()[0] + 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one beam")]
    fn needs_delays() {
        let mut rng = Rng64::seed(7);
        let obs = synth_probe(&[(1.0, 0.0)], &[0.0], 20.0, 1e-6, &mut rng);
        estimate_per_beam(&obs, &[], &SuperResConfig::default());
    }

    /// Asserts the Gram path reproduces the direct oracle on `obs`:
    /// bit-identical τ₀ and relative delays, α within 1e-9 relative error,
    /// and the closed-form residual within rounding of `‖y‖²`. `scratch`
    /// is shared across probes of different K, as the controller shares it
    /// across rounds.
    fn assert_agrees(
        scratch: &mut SuperResScratch,
        obs: &ProbeObservation,
        rel: &[f64],
        what: &str,
    ) {
        let cfg = SuperResConfig::default();
        let fast = estimate_per_beam_with(scratch, obs, rel, &cfg);
        let oracle = direct::estimate_per_beam(obs, rel, &cfg);
        assert_eq!(
            fast.tau0_ns.to_bits(),
            oracle.tau0_ns.to_bits(),
            "{what}: τ0 {} vs oracle {}",
            fast.tau0_ns,
            oracle.tau0_ns
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&fast.rel_delays_ns),
            bits(&oracle.rel_delays_ns),
            "{what}: delays {:?} vs oracle {:?}",
            fast.rel_delays_ns,
            oracle.rel_delays_ns
        );
        let norm = |v: &[Complex64]| v.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        let diff: Vec<Complex64> = fast
            .alphas
            .iter()
            .zip(&oracle.alphas)
            .map(|(&a, &b)| a - b)
            .collect();
        assert!(
            norm(&diff) <= 1e-9 * norm(&oracle.alphas),
            "{what}: α relative error {:e}",
            norm(&diff) / norm(&oracle.alphas)
        );
        let y_energy: f64 = obs.csi.iter().map(|v| v.norm_sqr()).sum();
        assert!(
            (fast.residual - oracle.residual).abs() <= 1e-9 * y_energy,
            "{what}: residual {} vs oracle {}",
            fast.residual,
            oracle.residual
        );
    }

    #[test]
    fn agrees_with_direct_solver_on_fig11a_sweep() {
        // The Fig. 11a probe family, ΔToF 0.1–5 ns in 0.1 ns steps.
        let mut rng = Rng64::seed(1101);
        let mut scratch = SuperResScratch::default();
        for step in 1..=50 {
            let rel = [0.0, 0.1 * step as f64];
            let obs = synth_probe(&[(1.0, 0.4), (0.6, -1.2)], &rel, 25.0, 1e-4, &mut rng);
            assert_agrees(&mut scratch, &obs, &rel, &format!("Δτ = {:.1} ns", rel[1]));
        }
    }

    #[test]
    fn agrees_with_direct_solver_on_fig11b_and_fig15_probes() {
        use crate::frontend::{LinkFrontEnd, SnapshotFrontEnd};
        use mmwave_array::geometry::ArrayGeometry;
        use mmwave_array::multibeam::MultiBeam;
        use mmwave_channel::channel::{GeometricChannel, UeReceiver};
        use mmwave_channel::path::{Path, PathKind};
        use mmwave_dsp::units::{amp_from_db, fspl_db, FC_28GHZ};
        use mmwave_phy::chanest::ChannelSounder;

        let geom = ArrayGeometry::paper_8x8();
        let front_end = |dist_m: f64, paths: &[(f64, f64, f64, f64)], seed: u64| {
            // (aod, aoa, relative amplitude, phase) per path; delays below.
            let base = amp_from_db(-fspl_db(dist_m, FC_28GHZ));
            let delays = if dist_m == 6.0 {
                [20.0, 26.5]
            } else {
                [23.3, 23.9]
            };
            let ch = GeometricChannel::new(
                paths
                    .iter()
                    .zip(delays)
                    .enumerate()
                    .map(|(i, (&(aod, aoa, amp, ph), d))| {
                        let kind = if i == 0 {
                            PathKind::Los
                        } else {
                            PathKind::Reflected { wall: 0 }
                        };
                        Path::new(aod, aoa, Complex64::from_polar(base * amp, ph), d, kind)
                    })
                    .collect(),
                FC_28GHZ,
            );
            SnapshotFrontEnd::new(
                ch,
                ChannelSounder::paper_indoor(),
                geom,
                UeReceiver::Omni,
                Rng64::seed(seed),
            )
        };
        let mut scratch = SuperResScratch::default();
        // Fig. 11b: 6 m LOS plus a reflector at 30°, 6.5 ns apart.
        let mut fe = front_end(6.0, &[(0.0, 0.0, 1.0, 0.0), (30.0, -30.0, 0.55, 1.0)], 1102);
        let obs = fe.probe(&MultiBeam::two_beam(0.0, 30.0, 0.55, 1.0).weights(&geom));
        assert_agrees(&mut scratch, &obs, &[0.0, 6.5], "fig11b");
        // Fig. 15: 7 m LOS plus a NLOS path at 30°, 0.6 ns apart, probed
        // through two-beam weights across the phase sweep.
        let delta = amp_from_db(-3.8);
        let mut fe = front_end(
            7.0,
            &[(0.0, 0.0, 1.0, 0.0), (30.0, -30.0, delta, 2.5)],
            1501,
        );
        for k in 0..8 {
            let phase = 2.0 * PI * k as f64 / 8.0;
            let obs = fe.probe(&MultiBeam::two_beam(0.0, 30.0, delta, phase).weights(&geom));
            assert_agrees(
                &mut scratch,
                &obs,
                &[0.0, 0.6],
                &format!("fig15 phase {phase:.2}"),
            );
        }
    }

    #[test]
    fn agrees_with_direct_solver_on_seeded_synthetic_sweep() {
        let mut rng = Rng64::seed(0x5e9);
        let mut scratch = SuperResScratch::default();
        for k in 1..=4 {
            for noise in [1e-6, 1e-4, 1e-2] {
                for trial in 0..3 {
                    let mut rel = vec![0.0];
                    for _ in 1..k {
                        let last = rel[rel.len() - 1];
                        rel.push(last + rng.uniform_in(0.3, 8.0));
                    }
                    let amps: Vec<(f64, f64)> = (0..k)
                        .map(|_| (rng.uniform_in(0.2, 1.0), rng.uniform_in(-PI, PI)))
                        .collect();
                    let tau0 = rng.uniform_in(15.0, 40.0);
                    // A centred comb makes the Gram real; the one-sided and
                    // irregular combs exercise its complex entries.
                    let spacing = 12.0 * 120e3;
                    let freqs: Vec<f64> = (0..264)
                        .map(|i| match trial {
                            0 => (i as f64 - 131.5) * spacing,
                            1 => i as f64 * spacing,
                            _ => (i as f64 + 0.3 * (i % 3) as f64) * spacing,
                        })
                        .collect();
                    // synth_probe_on applies a random CFO common phase.
                    let obs = synth_probe_on(freqs, &amps, &rel, tau0, noise, &mut rng);
                    assert_agrees(
                        &mut scratch,
                        &obs,
                        &rel,
                        &format!("K = {k}, noise {noise:e}, trial {trial}"),
                    );
                }
            }
        }
    }
}
