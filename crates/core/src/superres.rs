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
//! `G + λM·I`, with the reciprocals of its diagonal, for its whole τ₀
//! sweep. Per candidate, only the correlation
//! `b = Sᴴy`, `b_k = Σᵢ c_ki·pᵢ` with `c_ki = yᵢ·e^{j2πfᵢΔτ_k}` and
//! `pᵢ = e^{j2πfᵢτ₀}`, changes; stepping τ₀ by δ advances every `pᵢ` by
//! the fixed phasor `e^{j2πfᵢδ}`, so the sweep evaluates no trig at all.
//! α is a K×K triangular solve that divides by nothing, and the residual
//! is closed-form, `‖y − Sα‖² = ‖y‖² − 2Re(αᴴb) + αᴴGα`.
//!
//! The K anchors share one walk. Anchor `a` sweeps `τ₀ = τ̂ − Δτ_a + t`
//! around the coarse peak `τ̂`, so its `b_k = Σᵢ yᵢ·e^{j2πfᵢ(Δτ_k − Δτ_a)}·qᵢ`
//! with the anchor-free phasors `qᵢ = e^{j2πfᵢ(τ̂ + t)}`. The K diagonal
//! terms (k = a) are the same series `Σᵢ yᵢ·qᵢ`, so a step costs one `q`
//! advance and K²−K+1 correlations (rows `d_ka = c_k ∘ conj(e_a)` built
//! once per fit) instead of K advances and K². The correlations run as
//! one fused pass over `q`, two rows per load of each block of four, on an
//! AVX2 twin where the CPU has AVX2 (DESIGN.md §8, *Twin kernels*); every
//! row keeps the four-partial-sum rounding of a lone dot product. The
//! rows, the probe load and the walk's phasor advance run on the
//! split-lane twins of `mmwave_dsp::lanes`, each entry rounded as a
//! `Complex64` product. The sweep's winner is re-scored with exact
//! phasors, so the outputs depend on the sweep only through the position
//! of its first minimum in anchor-major order.
//!
//! The rows `e_k` and the normal equations depend on the comb, the delays
//! and the ridge alone. Maintenance feeds each fit's refined delays into
//! the next on the same comb, so a fit whose three match the loaded set's
//! bit for bit keeps it and rebuilds only the rows `c_k`: no `cis`, no
//! Gram, no factorisation. The coarse peak `τ̂` comes from a Bluestein
//! transform whose power-of-two plans the scratch keeps.
//!
//! **Screened jitter trials.** A relative-delay trial `Δτ_k + j` needs M
//! `cis` for its row. The jitter pass first scores the row
//! `e_k ∘ J_j`, with `J_j = e^{j2πfᵢj}` cached per comb, and builds the
//! exact row only when that screened residual is below
//! `best + SCREEN_TOL·‖y‖²`; the trial then commits on its exact residual.
//! The two rows differ by a few ulps of the phase, at most about `A·ε` per
//! entry with `A = 1 + max|2πfᵢ|·(max|Δτ| + max|j|)` (rad). Carried
//! through `G + λM·I`, whose eigenvalues lie in `[λM, (K+λ)M]` so that
//! κ ≤ (K+λ)/λ, this moves the residual by about `M·A·ε·κ·‖y‖²`:
//! 264 · 2.2·10⁻¹⁶ · (4 + 10⁻³)/10⁻³ ≈ 2.3·10⁻¹⁰·A·‖y‖² at K = 4 and the
//! default λ = 10⁻³. Every trial whose exact residual beats the best is
//! therefore confirmed, and the pass decides exactly as the unscreened one.
//! The screen runs only while this estimate stays `SCREEN_HEADROOM` times
//! below the tolerance (never at λ = 0, where κ is unbounded).

use mmwave_array::weights::BeamWeights;
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::fft::FftScratch;
use mmwave_dsp::lanes;
use mmwave_dsp::linalg::{CMatrix, CholeskyFactor};
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
#[derive(Debug, Default)]
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

impl Clone for PerBeamEstimate {
    fn clone(&self) -> Self {
        let mut out = Self::default();
        out.clone_from(self);
        out
    }

    /// Field by field, so a warm estimate keeps its buffers.
    fn clone_from(&mut self, source: &Self) {
        self.alphas.clone_from(&source.alphas);
        self.powers_mw.clone_from(&source.powers_mw);
        self.residual = source.residual;
        self.tau0_ns = source.tau0_ns;
        self.rel_delays_ns.clone_from(&source.rel_delays_ns);
    }
}

impl PerBeamEstimate {
    /// Per-beam powers in dB (floored at −200 dB).
    // xtask-allow(hot-path-closure): one short per-beam vector per estimate on the maintenance cadence
    pub fn powers_db(&self) -> Vec<f64> {
        (0..self.powers_mw.len())
            .map(|k| self.power_db(k))
            .collect()
    }

    /// Beam `k`'s power in dB (floored at −200 dB).
    pub(crate) fn power_db(&self, k: usize) -> f64 {
        debug_assert!(k < self.powers_mw.len());
        10.0 * self.powers_mw[k].max(1e-20).log10()
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

    /// Appends `n` zero entries and returns their lanes.
    fn grow(&mut self, n: usize) -> (&mut [f64], &mut [f64]) {
        debug_assert_eq!(self.re.len(), self.im.len());
        self.reserve(n);
        let len = self.re.len();
        self.re.resize(len + n, 0.0);
        self.im.resize(len + n, 0.0);
        (&mut self.re[len..], &mut self.im[len..])
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

    /// Holds the entries of `v`, split into the lanes.
    fn load(&mut self, v: &[Complex64]) {
        self.clear();
        lanes::split(v, self.grow(v.len()));
    }

    /// Appends `e^{j·wᵢ·delay_ns}` per subcarrier (`w` in rad/ns).
    fn extend_phasors(&mut self, w: &[f64], delay_ns: f64) {
        self.reserve(w.len());
        for &wi in w {
            self.push(Complex64::cis(wi * delay_ns));
        }
    }

    /// Appends the row `x`.
    fn extend_row(&mut self, (xr, xi): (&[f64], &[f64])) {
        self.reserve(xr.len());
        self.re.extend_from_slice(xr);
        self.im.extend_from_slice(xi);
    }

    /// Appends `xᵢ·zᵢ` (or `xᵢ·zᵢ*` when `CONJ_Z`) for the rows `x`, `z`,
    /// rounded as [`Complex64`]'s product.
    fn extend_product<const CONJ_Z: bool>(&mut self, x: (&[f64], &[f64]), z: (&[f64], &[f64])) {
        lanes::mul_into::<CONJ_Z>(x, z, self.grow(x.0.len()));
    }

    /// Overwrites row `k` of `m` entries with `src`.
    fn set_row(&mut self, k: usize, m: usize, src: &Lanes) {
        debug_assert!((k + 1) * m <= self.re.len() && src.re.len() == m);
        self.re[k * m..(k + 1) * m].copy_from_slice(&src.re);
        self.im[k * m..(k + 1) * m].copy_from_slice(&src.im);
    }

    /// Multiplies every entry by the matching entry of `u`.
    fn advance(&mut self, u: &Lanes) {
        lanes::mul_assign((&mut self.re, &mut self.im), u.all());
    }
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
fn gram_entry((kr, ki): (&[f64], &[f64]), (lr, li): (&[f64], &[f64])) -> Complex64 {
    Complex64::new(
        lane_sum(lr, kr, li, ki, 1.0),
        lane_sum(lr, ki, li, kr, -1.0),
    )
}

/// `out[r] = Σᵢ x_{r,i}·qᵢ` for the rows `x_r` stacked in `rows`, each as
/// long as `q`, in one pass over `q` that correlates two rows against
/// each load of it. Every row is summed as [`lane_sum`] sums: four partial
/// sums over `i mod 4` of `x·y − u·v` (real) and `x·v + u·y` (imaginary),
/// the tail added to the first, folded as `(a0 + a1) + (a2 + a3)`. `lanes`
/// holds the partial sums between the twin kernel and the fold.
fn correlate_rows(
    (xr, xi): (&[f64], &[f64]),
    q: (&[f64], &[f64]),
    lanes: &mut Vec<[f64; 4]>,
    out: &mut [Complex64],
) {
    let m = q.0.len();
    debug_assert!(q.1.len() == m && xr.len() == out.len() * m && xi.len() == xr.len());
    lanes.resize(lanes.len().max(2 * out.len()), [0.0; 4]);
    let lanes = &mut lanes[..2 * out.len()];
    correlate_lanes((xr, xi), q, lanes);
    let full = m - m % 4;
    for (r, (o, l)) in out.iter_mut().zip(lanes.chunks_exact(2)).enumerate() {
        let (mut re, mut im) = (l[0], l[1]);
        for i in full..m {
            let (x, u, y, v) = (xr[r * m + i], xi[r * m + i], q.0[i], q.1[i]);
            re[0] += x * y - u * v;
            im[0] += x * v + u * y;
        }
        let fold = |a: [f64; 4]| (a[0] + a[1]) + (a[2] + a[3]);
        *o = Complex64::new(fold(re), fold(im));
    }
}

/// The partial sums of [`correlate_rows`] over the whole blocks of four
/// entries: `lanes[2r]` real and `lanes[2r + 1]` imaginary for row `r`.
/// Runs the AVX2 twin when the CPU has AVX2 (DESIGN.md §8, *Twin
/// kernels*).
fn correlate_lanes(rows: (&[f64], &[f64]), q: (&[f64], &[f64]), lanes: &mut [[f64; 4]]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, the twin's only requirement.
        return unsafe { correlate_lanes_avx2(rows, q, lanes) };
    }
    correlate_lanes_baseline(rows, q, lanes);
}

/// [`correlate_lanes`] compiled for the baseline target.
fn correlate_lanes_baseline(rows: (&[f64], &[f64]), q: (&[f64], &[f64]), lanes: &mut [[f64; 4]]) {
    correlate_lanes_body(rows, q, lanes);
}

/// [`correlate_lanes`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn correlate_lanes_avx2(
    rows: (&[f64], &[f64]),
    q: (&[f64], &[f64]),
    lanes: &mut [[f64; 4]],
) {
    correlate_lanes_body(rows, q, lanes);
}

/// The rows two at a time, then the odd one out.
#[inline(always)]
fn correlate_lanes_body((xr, xi): (&[f64], &[f64]), q: (&[f64], &[f64]), lanes: &mut [[f64; 4]]) {
    let m = q.0.len();
    let n = lanes.len() / 2;
    debug_assert!(lanes.len() == 2 * n && xr.len() == n * m && xi.len() == xr.len());
    let row = |r: usize| (&xr[r * m..(r + 1) * m], &xi[r * m..(r + 1) * m]);
    let mut r = 0;
    while r + 1 < n {
        correlate_block([row(r), row(r + 1)], q, &mut lanes[2 * r..2 * r + 4]);
        r += 2;
    }
    if r < n {
        correlate_block([row(r)], q, &mut lanes[2 * r..2 * r + 2]);
    }
}

/// The partial sums of `R` rows over the whole blocks of four entries,
/// each block of `q` loaded once for all `R`. The kernel stores whole
/// `[f64; 4]` accumulators and leaves tails and folds to its caller: a
/// store of adjacent real and imaginary parts steers LLVM's vectoriser
/// into two-wide complex arithmetic, which runs about half as fast.
#[inline(always)]
fn correlate_block<const R: usize>(
    rows: [(&[f64], &[f64]); R],
    (qr, qi): (&[f64], &[f64]),
    lanes: &mut [[f64; 4]],
) {
    let qr4 = qr.as_chunks::<4>().0;
    let blocks = qr4.len();
    debug_assert!(lanes.len() == 2 * R && qi.len() == qr.len());
    let qi4 = &qi.as_chunks::<4>().0[..blocks];
    let rows4 = rows.map(|(xr, xi)| {
        (
            &xr.as_chunks::<4>().0[..blocks],
            &xi.as_chunks::<4>().0[..blocks],
        )
    });
    let mut re = [[0.0f64; 4]; R];
    let mut im = [[0.0f64; 4]; R];
    for j in 0..blocks {
        let (y, v) = (qr4[j], qi4[j]);
        for r in 0..R {
            let (x, u) = (rows4[r].0[j], rows4[r].1[j]);
            for l in 0..4 {
                re[r][l] += x[l] * y[l] - u[l] * v[l];
                im[r][l] += x[l] * v[l] + u[l] * y[l];
            }
        }
    }
    for r in 0..R {
        lanes[2 * r] = re[r];
        lanes[2 * r + 1] = im[r];
    }
}

/// The τ₀-invariant normal equations of one relative-delay set: the Gram
/// `G = SᴴS` and the Cholesky factor of `G + ridge·I`.
#[derive(Clone, Debug, Default)]
struct NormalEquations {
    gram: CMatrix,
    shifted: CMatrix,
    factor: CholeskyFactor,
    /// The ridge the factor was shifted by.
    ridge: f64,
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
        self.ridge = ridge;
        self.factored = self.factor.factor(&self.shifted).is_ok();
    }

    /// Solves for α given the correlation `b` (written into `alpha`) and
    /// returns the closed-form residual `‖y‖² − 2Re(αᴴb) + αᴴGα`.
    fn solve_and_score(&self, b: &[Complex64], y_energy: f64, alpha: &mut Vec<Complex64>) -> f64 {
        let k = b.len();
        debug_assert_eq!(self.gram.as_slice().len(), k * k);
        alpha.clear();
        if self.factored {
            alpha.extend_from_slice(b);
            self.factor.solve_in_place(alpha);
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

/// Screened jitter trials are confirmed exactly while their residual is
/// below `best + SCREEN_TOL·‖y‖²` (module docs).
const SCREEN_TOL: f64 = 1e-6;

/// How far the screen's error estimate must stay below [`SCREEN_TOL`] for
/// the screen to run.
const SCREEN_HEADROOM: f64 = 16.0;

/// Whether the screen's error estimate `M·A·ε·κ` (module docs) for the
/// comb `w`, the delays `rel` and the jitter offsets stays
/// [`SCREEN_HEADROOM`] times below [`SCREEN_TOL`]. False at λ = 0, where
/// κ is unbounded, and for an infinite phase scale.
fn screen_is_sound(w: &[f64], rel: &[f64], jitter_ns: &[f64], lambda: f64) -> bool {
    let max_abs = |v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let phase = 1.0 + max_abs(w) * (max_abs(rel) + max_abs(jitter_ns));
    let kappa = (rel.len() as f64 + lambda) / lambda;
    w.len() as f64 * phase * f64::EPSILON * kappa * SCREEN_HEADROOM <= SCREEN_TOL
}

/// Whether the bulk-delay walk's candidate `(residual, anchor)` replaces
/// the best so far. The walk visits the candidates step by step, all
/// anchors per step, so a tie goes to the lower anchor: the winner is then
/// the first minimum of an anchor-by-anchor scan with a strict `<`.
fn replaces((best, best_anchor): (f64, usize), (residual, anchor): (f64, usize)) -> bool {
    residual < best || (residual == best && anchor < best_anchor)
}

/// Phasor rows that depend only on the sounded comb and the configuration,
/// so every fit of a run needs the same ones. They are rebuilt only when
/// their key (`w`, the step and the jitter offsets, compared bit for bit)
/// changes.
#[derive(Clone, Debug, Default)]
struct CombRows {
    w: Vec<f64>,
    step_ns: f64,
    jitter_ns: Vec<f64>,
    /// Per-step advance `e^{j2πfᵢδ}` of the bulk-delay walk.
    u: Lanes,
    /// `J_j = e^{j2πfᵢj}`, one row per jitter offset.
    jitter: Lanes,
}

/// Whether `a` and `b` hold the same values bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl CombRows {
    fn refresh(&mut self, w: &[f64], step_ns: f64, jitter_ns: &[f64]) {
        if same_bits(&self.w, w)
            && self.step_ns.to_bits() == step_ns.to_bits()
            && same_bits(&self.jitter_ns, jitter_ns)
        {
            return;
        }
        self.w.clear();
        self.w.extend_from_slice(w);
        self.step_ns = step_ns;
        self.jitter_ns.clear();
        self.jitter_ns.extend_from_slice(jitter_ns);
        self.u.clear();
        self.u.extend_phasors(w, step_ns);
        self.jitter.clear();
        self.jitter.reserve(jitter_ns.len() * w.len());
        for &j in jitter_ns {
            self.jitter.extend_phasors(w, j);
        }
    }
}

/// Reusable state of [`estimate_per_beam_into`] and of the training scan
/// ([`crate::training::beam_training`]): every buffer either needs, sized
/// on first use and reused thereafter, so a warmed scratch leaves the fit
/// allocation-free and the scan allocating only its owned outputs.
#[derive(Clone, Debug, Default)]
pub struct SuperResScratch {
    /// CIR and transform buffers of the coarse peak-delay estimate, shared
    /// by the fit and the scan (both sound the same comb, so the transform
    /// stays keyed to one length).
    pub(crate) cir: Vec<Complex64>,
    pub(crate) fft: FftScratch,
    /// The scan's held and incoming probe observations, and the weights
    /// each of its beams is steered into before it is probed.
    pub(crate) scan: [ProbeObservation; 2],
    pub(crate) scan_beam: Option<BeamWeights>,
    /// `2π·fᵢ` in rad/ns per sounded subcarrier.
    w: Vec<f64>,
    /// The probe's CSI `y`.
    y: Lanes,
    /// Rows `e_k = e^{j2πfᵢΔτ_k}` of the current delay set `rel`, and its
    /// normal equations. They depend on `w`, `rel` and the ridge only, so
    /// a fit whose three equal the last fit's bit for bit keeps them
    /// (`commit_trial` keeps `rel` in step with them).
    e: Lanes,
    normal: NormalEquations,
    /// Rows `c_k = yᵢ·e^{j2πfᵢΔτ_k}`.
    c: Lanes,
    /// The rows the shared walk correlates: `y`, then `d_ka = c_k ∘
    /// conj(e_a)` anchor-major and beam-minor, skipping `k = a`; their
    /// correlations at the current step, and the partial sums behind them.
    d: Lanes,
    corr: Vec<Complex64>,
    lanes: Vec<[f64; 4]>,
    /// Row `e_k` of the beam whose jitter trials are being screened, as it
    /// was before any of them committed.
    nominal: Lanes,
    /// One jitter trial's replacement `e`/`c` rows and the normal
    /// equations of the trial delay set.
    trial_e: Lanes,
    trial_c: Lanes,
    trial: NormalEquations,
    /// Bulk-delay phasors: the shared walk `e^{j2πfᵢ(τ̂+t)}` during the
    /// sweep, then the exact `e^{j2πfᵢτ₀}` of its winner.
    p: Lanes,
    comb: CombRows,
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
    /// Loads the probe's comb and CSI and the given relative delays, and
    /// returns whether the loaded delay set (rows `e` and normal
    /// equations) is still theirs at this ridge.
    fn load_probe(&mut self, obs: &ProbeObservation, rel_delays_ns: &[f64], ridge: f64) -> bool {
        let w = |f: f64| 2.0 * PI * f * 1e-9;
        let loaded = self.w.len() == obs.freqs_hz.len()
            && (self.w.iter().zip(&obs.freqs_hz)).all(|(&wi, &f)| wi.to_bits() == w(f).to_bits())
            && same_bits(&self.rel, rel_delays_ns)
            && self.normal.ridge.to_bits() == ridge.to_bits();
        if !loaded {
            self.w.clear();
            self.w.extend(obs.freqs_hz.iter().map(|&f| w(f)));
            self.rel.clear();
            self.rel.extend_from_slice(rel_delays_ns);
        }
        self.y.load(&obs.csi);
        loaded
    }

    /// Sets `p` to the exact phasors of bulk delay `tau0_ns`.
    fn seed_phasors(&mut self, tau0_ns: f64) {
        self.p.clear();
        self.p.extend_phasors(&self.w, tau0_ns);
    }

    /// Fills `b` with `b_k = Σᵢ c_ki·pᵢ` for the current delay set.
    fn correlate(&mut self) {
        self.b.clear();
        self.b.resize(self.rel.len(), Complex64::ZERO);
        correlate_rows(self.c.all(), self.p.all(), &mut self.lanes, &mut self.b);
    }

    /// Loads the delay set `self.rel`: phasor rows, the Gram and its factor,
    /// then the correlations with `y`.
    fn load_delay_set(&mut self, ridge: f64) {
        let m = self.w.len();
        let n = self.rel.len();
        self.e.clear();
        for &d in &self.rel {
            self.e.extend_phasors(&self.w, d);
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
        self.load_correlations();
    }

    /// Rebuilds the rows `c_k = y ∘ e_k` of the loaded delay set.
    fn load_correlations(&mut self) {
        let m = self.w.len();
        self.c.clear();
        for k in 0..self.rel.len() {
            self.c
                .extend_product::<false>(self.y.all(), self.e.row(k, m));
        }
    }

    /// Builds the trial delay set with beam `k` moved to `delay_ns` (its
    /// rows in `trial_e`/`trial_c`, its normal equations in `trial`) and
    /// the trial correlation in `b`.
    fn load_trial(&mut self, k: usize, delay_ns: f64, ridge: f64) {
        self.trial_e.clear();
        self.trial_e.extend_phasors(&self.w, delay_ns);
        self.finish_trial(k, ridge);
    }

    /// [`Self::load_trial`] for the delay `nominal + j` of the `jitter`-th
    /// offset, with the row screened as `nominal ∘ J_j` instead of
    /// evaluated.
    fn load_screened_trial(&mut self, k: usize, jitter: usize, ridge: f64) {
        let m = self.w.len();
        self.trial_e.clear();
        self.trial_e
            .extend_product::<false>(self.nominal.all(), self.comb.jitter.row(jitter, m));
        self.finish_trial(k, ridge);
    }

    /// Completes a trial whose row `e_k` is in `trial_e`.
    fn finish_trial(&mut self, k: usize, ridge: f64) {
        let m = self.w.len();
        let n = self.rel.len();
        self.trial_c.clear();
        self.trial_c
            .extend_product::<false>(self.y.all(), self.trial_e.all());
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
        let bk = &mut self.b[k..=k];
        correlate_rows(self.trial_c.all(), self.p.all(), &mut self.lanes, bk);
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

    /// Sweeps τ₀ = `peak_ns − Δτ_a + t·tap_ns` for every anchor `a` and
    /// `t` stepping over ± `tau0_search_taps`, all anchors on one walk
    /// (module docs), and returns the τ₀ of the first minimum residual in
    /// anchor-major order (`peak_ns` when the span is empty).
    fn sweep_bulk_delay(
        &mut self,
        peak_ns: f64,
        tap_ns: f64,
        cfg: &SuperResConfig,
        y_energy: f64,
    ) -> f64 {
        let m = self.w.len();
        let n = self.rel.len();
        debug_assert!(self.e.re.len() == n * m && self.c.re.len() == n * m);
        self.d.clear();
        self.d.reserve((n * (n - 1) + 1) * m);
        self.d.extend_row(self.y.all());
        for a in 0..n {
            for k in (0..n).filter(|&k| k != a) {
                self.d
                    .extend_product::<true>(self.c.row(k, m), self.e.row(a, m));
            }
        }
        self.corr.clear();
        self.corr.resize(n * (n - 1) + 1, Complex64::ZERO);
        let mut best: Option<(f64, usize, f64)> = None;
        let mut t = -cfg.tau0_search_taps;
        self.seed_phasors(peak_ns + t * tap_ns);
        while t <= cfg.tau0_search_taps {
            correlate_rows(self.d.all(), self.p.all(), &mut self.lanes, &mut self.corr);
            // Row 0 is the diagonal `Σᵢ yᵢ·qᵢ` every anchor shares.
            let mut row = 1;
            for a in 0..n {
                self.b.clear();
                for k in 0..n {
                    if k == a {
                        self.b.push(self.corr[0]);
                    } else {
                        self.b.push(self.corr[row]);
                        row += 1;
                    }
                }
                let residual = self
                    .normal
                    .solve_and_score(&self.b, y_energy, &mut self.alpha);
                if best.is_none_or(|(r, anchor, _)| replaces((r, anchor), (residual, a))) {
                    best = Some((residual, a, t));
                }
            }
            self.p.advance(&self.comb.u);
            t += cfg.tau0_step_taps;
        }
        best.map_or(peak_ns, |(_, a, t)| {
            let coarse_ns = peak_ns - self.rel[a];
            coarse_ns + t * tap_ns
        })
    }

    /// Greedy per-beam relative-ToF refinement from the re-scored sweep
    /// winner (residual `best_residual`, loaded by [`Self::keep_best`]):
    /// tries each jitter offset on each non-reference beam's delay, keeps
    /// strict improvements and returns the final residual. Where
    /// [`screen_is_sound`], a trial is first scored on its screened row
    /// (module docs).
    fn refine_jitter(
        &mut self,
        mut best_residual: f64,
        y_energy: f64,
        cfg: &SuperResConfig,
    ) -> f64 {
        let m = self.w.len();
        let jitter_ns = &cfg.jitter_ns;
        debug_assert!(
            self.e.re.len() == self.rel.len() * m
                && self.comb.jitter.re.len() == jitter_ns.len() * m
        );
        let ridge = cfg.lambda * m as f64;
        let screen = screen_is_sound(&self.w, &self.rel, jitter_ns, cfg.lambda);
        let tol = SCREEN_TOL * y_energy;
        for k in 1..self.rel.len() {
            let nominal = self.rel[k];
            if screen {
                self.nominal.clear();
                self.nominal.extend_row(self.e.row(k, m));
            }
            for (i, &j) in jitter_ns.iter().enumerate() {
                let delay_ns = nominal + j;
                // The delay in use rebuilds the current normal equations
                // and correlation bit for bit (see `finish_trial`), so its
                // residual equals `best_residual` and cannot beat it.
                if delay_ns.to_bits() == self.rel[k].to_bits() {
                    continue;
                }
                if screen {
                    self.load_screened_trial(k, i, ridge);
                    let screened = self
                        .trial
                        .solve_and_score(&self.b, y_energy, &mut self.alpha);
                    if screened >= best_residual + tol {
                        continue;
                    }
                }
                self.load_trial(k, delay_ns, ridge);
                let residual = self
                    .trial
                    .solve_and_score(&self.b, y_energy, &mut self.alpha);
                if residual < best_residual {
                    best_residual = residual;
                    self.commit_trial(k, delay_ns);
                }
            }
        }
        best_residual
    }
}

/// Decomposes one multi-beam probe into per-beam complex amplitudes, given
/// the beams' relative delays (first entry is the reference, typically 0).
/// One-shot form of [`estimate_per_beam_into`].
pub fn estimate_per_beam(
    obs: &ProbeObservation,
    rel_delays_ns: &[f64],
    cfg: &SuperResConfig,
) -> PerBeamEstimate {
    let mut est = PerBeamEstimate::default();
    estimate_per_beam_into(
        &mut SuperResScratch::default(),
        obs,
        rel_delays_ns,
        cfg,
        &mut est,
    );
    est
}

/// [`estimate_per_beam`] through a caller-owned [`SuperResScratch`], into a
/// caller-owned estimate. Once the scratch has seen a probe of the same
/// shape and `out` has held an estimate of as many beams, the fit
/// allocates nothing.
///
/// Search: the coarse CIR peak is anchored to each beam in turn and the
/// bulk delay τ₀ is swept ± `tau0_search_taps` around it (one Gram factor
/// and one phasor walk serve all anchors); the winner is re-scored with
/// exact phasors, and a greedy pass then tries each jitter offset on each
/// non-reference beam's relative delay, keeping strict improvements.
///
/// # Panics
///
/// Without delays, with fewer subcarriers than beams, with a negative λ,
/// or with a bulk-delay step that is not finite and positive, or is below
/// one ulp of the search span, or a search span that is not finite (each
/// would never end the sweep).
pub fn estimate_per_beam_into(
    scratch: &mut SuperResScratch,
    obs: &ProbeObservation,
    rel_delays_ns: &[f64],
    cfg: &SuperResConfig,
    out: &mut PerBeamEstimate,
) {
    assert!(!rel_delays_ns.is_empty(), "need at least one beam delay");
    assert!(
        obs.csi.len() >= rel_delays_ns.len(),
        "underdetermined: fewer subcarriers than beams"
    );
    assert!(cfg.lambda >= 0.0, "ridge parameter must be non-negative");
    assert!(
        cfg.tau0_step_taps.is_finite() && cfg.tau0_step_taps > 0.0,
        "bulk-delay step must be finite and positive"
    );
    assert!(
        cfg.tau0_search_taps.is_finite(),
        "bulk-delay search span must be finite"
    );
    // A step below one ulp of the span would leave `t += step` stuck
    // inside it; from one ulp up, every `t` in the span advances.
    let span = cfg.tau0_search_taps.abs();
    assert!(
        span + cfg.tau0_step_taps / 2.0 > span,
        "bulk-delay step must not vanish against the search span"
    );
    debug_assert_eq!(obs.freqs_hz.len(), obs.csi.len());
    let y = &obs.csi;
    // Scale λ with the dictionary's column energy (M subcarriers).
    let ridge = cfg.lambda * y.len() as f64;
    let y_energy: f64 = y.iter().map(|v| v.norm_sqr()).sum();
    let s = scratch;
    if s.load_probe(obs, rel_delays_ns, ridge) {
        s.load_correlations();
    } else {
        s.load_delay_set(ridge);
    }

    let tap_ns = 1.0 / (obs.comb_spacing_hz().max(1.0) * y.len() as f64) * 1e9;
    s.comb
        .refresh(&s.w, cfg.tau0_step_taps * tap_ns, &cfg.jitter_ns);
    // The CIR magnitude peak belongs to whichever beam currently dominates —
    // not necessarily the reference (e.g. when the LOS beam is blocked the
    // peak jumps to a reflection). Try anchoring it to each beam's relative
    // delay and grid-search the bulk delay around every candidate.
    let peak_ns = crate::training::estimate_delay_ns_with(obs, &mut s.cir, &mut s.fft);
    let best_tau0 = s.sweep_bulk_delay(peak_ns, tap_ns, cfg, y_energy);
    // Re-score the winner with exact phasors: the jitter trials below use
    // the same ones, so an unchanged delay set reproduces it bit for bit.
    s.seed_phasors(best_tau0);
    s.correlate();
    let residual = s.normal.solve_and_score(&s.b, y_energy, &mut s.alpha);
    s.keep_best();
    out.residual = s.refine_jitter(residual, y_energy, cfg);
    out.alphas.clone_from(&s.alpha_best);
    out.powers_mw.clear();
    out.powers_mw
        .extend(out.alphas.iter().map(|a| a.norm_sqr()));
    out.tau0_ns = best_tau0;
    out.rel_delays_ns.clone_from(&s.rel);
}

#[cfg(test)]
mod direct {
    //! The direct solver the Gram path replaced, kept as the test oracle:
    //! every candidate builds its M×K dictionary `S(τ₀)` and runs a full
    //! ridge least-squares solve, and the residual is summed explicitly.

    use super::{PerBeamEstimate, SuperResConfig};
    use mmwave_dsp::complex::Complex64;
    use mmwave_dsp::fft::FftScratch;
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
        let peak_ns = crate::training::estimate_delay_ns_with(
            obs,
            &mut Vec::new(),
            &mut FftScratch::default(),
        );
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
mod per_anchor {
    //! The fit before its anchors shared one walk, kept as the bit-exact
    //! test oracle: every anchor seeds and advances its own phasors and
    //! correlates all K beam rows (K² series per step), and every jitter
    //! trial evaluates its row exactly.

    use super::{Lanes, PerBeamEstimate, SuperResConfig, SuperResScratch};
    use mmwave_phy::chanest::ProbeObservation;

    /// [`super::estimate_per_beam`] as it was: same assertions on the
    /// delays, Gram path and exact re-score.
    pub fn estimate_per_beam(
        obs: &ProbeObservation,
        rel_delays_ns: &[f64],
        cfg: &SuperResConfig,
    ) -> PerBeamEstimate {
        let s = &mut SuperResScratch::default();
        let y = &obs.csi;
        let ridge = cfg.lambda * y.len() as f64;
        let y_energy: f64 = y.iter().map(|v| v.norm_sqr()).sum();
        s.load_probe(obs, rel_delays_ns, ridge);
        s.load_delay_set(ridge);
        let tap_ns = 1.0 / (obs.comb_spacing_hz().max(1.0) * y.len() as f64) * 1e9;
        let mut u = Lanes::default();
        u.extend_phasors(&s.w, cfg.tau0_step_taps * tap_ns);
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
                s.p.advance(&u);
                t += cfg.tau0_step_taps;
            }
        }
        s.seed_phasors(best_tau0);
        s.correlate();
        let mut best_residual = s.normal.solve_and_score(&s.b, y_energy, &mut s.alpha);
        s.keep_best();
        for k in 1..s.rel.len() {
            let nominal = s.rel[k];
            for &j in &cfg.jitter_ns {
                s.load_trial(k, nominal + j, ridge);
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
        let mut fast = PerBeamEstimate::default();
        estimate_per_beam_into(scratch, obs, rel, &cfg, &mut fast);
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

    /// Asserts `fast` and `oracle` agree in every output bit.
    fn assert_bitwise(fast: &PerBeamEstimate, oracle: &PerBeamEstimate, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let complex_bits = |v: &[Complex64]| {
            v.iter()
                .flat_map(|a| [a.re.to_bits(), a.im.to_bits()])
                .collect::<Vec<_>>()
        };
        assert_eq!(
            complex_bits(&fast.alphas),
            complex_bits(&oracle.alphas),
            "{what}: α {:?} vs oracle {:?}",
            fast.alphas,
            oracle.alphas
        );
        assert_eq!(
            bits(&fast.powers_mw),
            bits(&oracle.powers_mw),
            "{what}: powers"
        );
        assert_eq!(
            fast.residual.to_bits(),
            oracle.residual.to_bits(),
            "{what}: residual {} vs oracle {}",
            fast.residual,
            oracle.residual
        );
        assert_eq!(
            fast.tau0_ns.to_bits(),
            oracle.tau0_ns.to_bits(),
            "{what}: τ0 {} vs oracle {}",
            fast.tau0_ns,
            oracle.tau0_ns
        );
        assert_eq!(
            bits(&fast.rel_delays_ns),
            bits(&oracle.rel_delays_ns),
            "{what}: delays {:?} vs oracle {:?}",
            fast.rel_delays_ns,
            oracle.rel_delays_ns
        );
    }

    /// Seeded probes over K = 1–4, three noise levels and three beam
    /// separations, on a centred or a one-sided comb with a random CFO,
    /// each paired with given delays that miss the true ones by an offset
    /// (so jitter trials commit): `(probe, given delays, label)`.
    fn seeded_probes() -> Vec<(ProbeObservation, Vec<f64>, String)> {
        let mut rng = Rng64::seed(0x22);
        let spacing = 12.0 * 120e3;
        let mut probes = Vec::new();
        for k in 1..=4 {
            for noise in [1e-8, 1e-4, 1.0] {
                for sep in [0.5, 3.0, 12.0] {
                    for (case, offset) in [-0.1, 0.1, 0.3].into_iter().enumerate() {
                        let truth: Vec<f64> = (0..k).map(|i| sep * i as f64).collect();
                        let given: Vec<f64> = truth
                            .iter()
                            .enumerate()
                            .map(|(i, &d)| if i == 0 { d } else { d + offset })
                            .collect();
                        let amps: Vec<(f64, f64)> = (0..k)
                            .map(|_| (rng.uniform_in(0.2, 1.0), rng.uniform_in(-PI, PI)))
                            .collect();
                        let tau0 = rng.uniform_in(15.0, 40.0);
                        let centre = if case == 1 { 0.0 } else { 131.5 };
                        let freqs = (0..264).map(|i| (i as f64 - centre) * spacing).collect();
                        let obs = synth_probe_on(freqs, &amps, &truth, tau0, noise, &mut rng);
                        let what =
                            format!("K = {k}, noise {noise:e}, Δτ {sep} ns, offset {offset}");
                        probes.push((obs, given, what));
                    }
                }
            }
        }
        probes
    }

    #[test]
    fn shared_walk_and_screened_jitter_match_the_per_anchor_fit_bit_for_bit() {
        let screened = SuperResConfig::default();
        // λ = 0 leaves κ unbounded, so every trial is confirmed exactly.
        let unscreened = SuperResConfig {
            lambda: 0.0,
            ..SuperResConfig::default()
        };
        // One scratch and one estimate carry over from fit to fit.
        let mut scratch = SuperResScratch::default();
        let mut fast = PerBeamEstimate::default();
        let mut commits = 0;
        for (obs, given, what) in &seeded_probes() {
            for cfg in [&screened, &unscreened] {
                estimate_per_beam_into(&mut scratch, obs, given, cfg, &mut fast);
                let oracle = per_anchor::estimate_per_beam(obs, given, cfg);
                assert_bitwise(&fast, &oracle, &format!("{what}, λ = {}", cfg.lambda));
                commits += usize::from(fast.rel_delays_ns != *given);
            }
        }
        assert!(commits > 50, "only {commits} fits committed a jitter trial");
        // An all-zero probe scores every candidate 0: the tie goes to the
        // first candidate of the first anchor, as in the per-anchor scan.
        let (mut zero, given, _) = seeded_probes().swap_remove(100);
        zero.csi.fill(Complex64::ZERO);
        let cfg = SuperResConfig::default();
        estimate_per_beam_into(&mut scratch, &zero, &given, &cfg, &mut fast);
        assert_bitwise(
            &fast,
            &per_anchor::estimate_per_beam(&zero, &given, &cfg),
            "zero CSI",
        );
        let tap_ns = 1.0 / (zero.comb_spacing_hz() * zero.csi.len() as f64) * 1e9;
        let peak_ns =
            crate::training::estimate_delay_ns_with(&zero, &mut scratch.cir, &mut scratch.fft);
        let first = peak_ns - given[0] + -cfg.tau0_search_taps * tap_ns;
        assert_eq!(fast.tau0_ns.to_bits(), first.to_bits(), "zero CSI τ0");
    }

    #[test]
    fn screened_residuals_stay_far_inside_the_tolerance() {
        // Every (beam, offset) trial around each fit's final delay set,
        // scored both ways: the worst gap must leave the tolerance ample
        // room, as the module docs' estimate says.
        let cfg = SuperResConfig::default();
        let mut s = SuperResScratch::default();
        let mut est = PerBeamEstimate::default();
        let mut worst: f64 = 0.0;
        for (obs, given, _) in &seeded_probes() {
            estimate_per_beam_into(&mut s, obs, given, &cfg, &mut est);
            let y_energy: f64 = obs.csi.iter().map(|v| v.norm_sqr()).sum();
            let ridge = cfg.lambda * obs.csi.len() as f64;
            let m = obs.csi.len();
            for k in 1..given.len() {
                s.nominal.clear();
                s.nominal.extend_row(s.e.row(k, m));
                for (i, &j) in cfg.jitter_ns.iter().enumerate() {
                    s.load_screened_trial(k, i, ridge);
                    let screened = s.trial.solve_and_score(&s.b, y_energy, &mut s.alpha);
                    s.load_trial(k, s.rel[k] + j, ridge);
                    let exact = s.trial.solve_and_score(&s.b, y_energy, &mut s.alpha);
                    worst = worst.max((screened - exact).abs() / y_energy);
                }
            }
        }
        assert!(
            worst * SCREEN_HEADROOM <= SCREEN_TOL,
            "screened residuals miss the exact ones by up to {worst:e}·‖y‖²"
        );
    }

    #[test]
    fn chained_fits_reusing_the_delay_set_match_fresh_fits_bit_for_bit() {
        // One scratch carries the delay set from fit to fit, each fit given
        // the previous one's refined delays (as the controller feeds them
        // back), across K changes, a comb change and a λ change. Each must
        // equal a fit on a fresh scratch in every bit.
        let spacing = 12.0 * 120e3;
        let centred: Vec<f64> = (0..264).map(|i| (i as f64 - 131.5) * spacing).collect();
        let one_sided: Vec<f64> = (0..264).map(|i| i as f64 * spacing).collect();
        let default = SuperResConfig::default();
        let stiffer = SuperResConfig {
            lambda: 1e-2,
            ..SuperResConfig::default()
        };
        // (K, comb, configuration, fits)
        let legs = [
            (1, &centred, &default, 3),
            (4, &centred, &default, 4),
            (2, &centred, &default, 4),
            (2, &one_sided, &default, 3),
            (2, &one_sided, &stiffer, 3),
            (2, &one_sided, &default, 2),
        ];
        let mut rng = Rng64::seed(0xc4a1);
        let mut scratch = SuperResScratch::default();
        let mut chained = PerBeamEstimate::default();
        let (mut fed_back, mut commits) = (0, 0);
        for (leg, &(k, freqs, cfg, fits)) in legs.iter().enumerate() {
            let truth: Vec<f64> = (0..k).map(|i| 3.1 * i as f64).collect();
            let amps: Vec<(f64, f64)> = (0..k)
                .map(|_| (rng.uniform_in(0.2, 1.0), rng.uniform_in(-PI, PI)))
                .collect();
            // Given delays 0.3 ns off the truth, so the first fits commit
            // jitter trials and later ones start from refined delays.
            let mut given: Vec<f64> = truth
                .iter()
                .map(|&d| if d == 0.0 { d } else { d + 0.3 })
                .collect();
            if leg > 0 && given.len() == chained.rel_delays_ns.len() {
                given.clone_from(&chained.rel_delays_ns);
            }
            for fit in 0..fits {
                let tau0 = rng.uniform_in(15.0, 40.0);
                let obs = synth_probe_on(freqs.clone(), &amps, &truth, tau0, 1e-4, &mut rng);
                estimate_per_beam_into(&mut scratch, &obs, &given, cfg, &mut chained);
                let fresh = estimate_per_beam(&obs, &given, cfg);
                assert_bitwise(&chained, &fresh, &format!("leg {leg}, fit {fit}, K = {k}"));
                commits += usize::from(chained.rel_delays_ns != given);
                fed_back += usize::from(fit > 0 || leg > 0);
                given.clone_from(&chained.rel_delays_ns);
            }
        }
        assert!(commits >= 3, "only {commits} fits committed a jitter trial");
        assert!(fed_back >= 15, "only {fed_back} fits were fed back");
    }

    /// Rows of `m` entries for the twin tests: seeded random values, then
    /// ±0, subnormals and large magnitudes spread through them.
    fn twin_rows(rows: usize, m: usize, rng: &mut Rng64) -> (Vec<f64>, Vec<f64>) {
        let special = [0.0, -0.0, 4.9e-324, -2.2e-310, 1e150, -3e149];
        let mut entry = |i: usize| {
            if i % 7 == 3 {
                special[rng.index(special.len())]
            } else {
                rng.uniform_in(-2.0, 2.0)
            }
        };
        let re = (0..rows * m).map(&mut entry).collect();
        let im = (0..rows * m).map(&mut entry).collect();
        (re, im)
    }

    #[test]
    fn correlate_rows_matches_the_per_row_lane_sums_bit_for_bit() {
        // Every row against the two `lane_sum`s the fit used per row before
        // the rows were fused, over lengths with and without a tail.
        let mut rng = Rng64::seed(0x1a2e);
        let mut lanes = Vec::new();
        for m in [0usize, 1, 3, 4, 5, 263, 264, 265] {
            for rows in [1usize, 2, 3, 7, 13] {
                let (xr, xi) = twin_rows(rows, m, &mut rng);
                let (qr, qi) = twin_rows(1, m, &mut rng);
                let mut out = vec![Complex64::ZERO; rows];
                correlate_rows((&xr, &xi), (&qr, &qi), &mut lanes, &mut out);
                for (r, o) in out.iter().enumerate() {
                    let (x, u) = (&xr[r * m..(r + 1) * m], &xi[r * m..(r + 1) * m]);
                    let want = (
                        lane_sum(x, &qr, u, &qi, -1.0),
                        lane_sum(x, &qi, u, &qr, 1.0),
                    );
                    assert_eq!(
                        (o.re.to_bits(), o.im.to_bits()),
                        (want.0.to_bits(), want.1.to_bits()),
                        "m = {m}, {rows} rows, row {r}: {o:?} vs {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn correlate_lanes_twins_agree_bit_for_bit() {
        #[cfg(target_arch = "x86_64")]
        {
            if !std::arch::is_x86_feature_detected!("avx2") {
                eprintln!("skipped: this CPU has no AVX2, so there is no twin to compare");
                return;
            }
            let mut rng = Rng64::seed(0x7a1);
            for m in [0usize, 1, 3, 4, 5, 263, 264, 265] {
                for rows in [1usize, 2, 3, 7] {
                    let (xr, xi) = twin_rows(rows, m, &mut rng);
                    let (qr, qi) = twin_rows(1, m, &mut rng);
                    let mut base = vec![[0.0; 4]; 2 * rows];
                    let mut avx2 = vec![[1.0; 4]; 2 * rows];
                    correlate_lanes_baseline((&xr, &xi), (&qr, &qi), &mut base);
                    // SAFETY: the CPU supports AVX2 (checked above).
                    unsafe { correlate_lanes_avx2((&xr, &xi), (&qr, &qi), &mut avx2) };
                    let bits = |v: &[[f64; 4]]| -> Vec<u64> {
                        v.iter().flatten().map(|x| x.to_bits()).collect()
                    };
                    assert_eq!(bits(&base), bits(&avx2), "m = {m}, {rows} rows");
                }
            }
        }
    }

    #[test]
    fn step_major_walk_picks_the_first_minimum_in_anchor_order() {
        // Residual tables full of ties (and a few NaNs), scanned anchor by
        // anchor with a strict `<` as the per-anchor fit does, and step by
        // step through `replaces` as the shared walk does.
        let mut rng = Rng64::seed(0x7ab);
        for _ in 0..2000 {
            let (anchors, steps) = (1 + rng.index(4), 1 + rng.index(6));
            let table: Vec<f64> = (0..anchors * steps)
                .map(|_| match rng.index(8) {
                    0 => f64::NAN,
                    1 => -0.0,
                    v => (v / 3) as f64,
                })
                .collect();
            let mut by_anchor: Option<(f64, usize, usize)> = None;
            for a in 0..anchors {
                for i in 0..steps {
                    let r = table[a * steps + i];
                    if by_anchor.is_none_or(|(b, _, _)| r < b) {
                        by_anchor = Some((r, a, i));
                    }
                }
            }
            let mut by_step: Option<(f64, usize, usize)> = None;
            for i in 0..steps {
                for a in 0..anchors {
                    let r = table[a * steps + i];
                    if by_step.is_none_or(|(b, anchor, _)| replaces((b, anchor), (r, a))) {
                        by_step = Some((r, a, i));
                    }
                }
            }
            let position = |best: Option<(f64, usize, usize)>| best.map(|(_, a, i)| (a, i));
            assert_eq!(position(by_step), position(by_anchor), "{table:?}");
        }
    }

    fn fit_with(cfg: &SuperResConfig) -> PerBeamEstimate {
        let mut rng = Rng64::seed(8);
        let obs = synth_probe(&[(1.0, 0.0), (0.5, 1.0)], &[0.0, 4.0], 20.0, 1e-6, &mut rng);
        estimate_per_beam(&obs, &[0.0, 4.0], cfg)
    }

    #[test]
    #[should_panic(expected = "bulk-delay step must be finite and positive")]
    fn zero_bulk_delay_step_is_rejected() {
        fit_with(&SuperResConfig {
            tau0_step_taps: 0.0,
            ..SuperResConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "bulk-delay step must be finite and positive")]
    fn negative_bulk_delay_step_is_rejected() {
        fit_with(&SuperResConfig {
            tau0_step_taps: -0.05,
            ..SuperResConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "bulk-delay step must not vanish")]
    fn sub_ulp_bulk_delay_step_is_rejected() {
        fit_with(&SuperResConfig {
            tau0_step_taps: 1e-17,
            ..SuperResConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "bulk-delay search span must be finite")]
    fn infinite_bulk_delay_search_is_rejected() {
        fit_with(&SuperResConfig {
            tau0_search_taps: f64::INFINITY,
            ..SuperResConfig::default()
        });
    }
}
