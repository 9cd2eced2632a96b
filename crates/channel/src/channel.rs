//! The sparse geometric channel (paper Eq. 25/26) and the observables the
//! PHY derives from it.
//!
//! Everything upstream (PHY, controller) sees the channel only through
//! the quantities computed here:
//!
//! - per-element frequency response `h[n](f)` (what an ideal per-antenna
//!   sounding would measure — used only by the oracle baseline),
//! - effective scalar channel `y(f) = Σ_l γ_l·g_rx(θ_l)·e^{-j2πfτ_l}·a(φ_l)ᵀw`
//!   under a given transmit beam (what reference signals actually measure),
//! - its band-averaged power over a uniform comb (the data-slot SNR's
//!   signal term), in closed form over the path pairs,
//! - the band-limited sampled CIR (paper Eq. 22).

use crate::bandpower::PairWeights;
use crate::path::Path;
use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::steering::{
    azimuth_row_into, fold_columns_into, folded_array_factor, steering_vector_into,
};
use mmwave_array::weights::BeamWeights;
use mmwave_dsp::complex::Complex64;
use mmwave_hotpath::hot_path;
use std::f64::consts::PI;

/// The receive side of the link.
#[derive(Clone, Debug)]
pub enum UeReceiver {
    /// Quasi-omni UE (the paper's default, §4): unit gain from every angle.
    Omni,
    /// Directional UE with its own phased array and receive beam (§4.4).
    Array {
        /// UE array geometry.
        geom: ArrayGeometry,
        /// UE combining weights (unit norm for a fair comparison).
        weights: BeamWeights,
    },
}

impl UeReceiver {
    /// Complex receive gain toward an arrival angle (degrees from the UE's
    /// boresight). `steer` is a caller-owned scratch buffer reused for the
    /// UE steering vector (unused for an omni UE), so the call never
    /// allocates.
    pub fn gain_toward_with(&self, aoa_deg: f64, steer: &mut Vec<Complex64>) -> Complex64 {
        match self {
            UeReceiver::Omni => Complex64::ONE,
            UeReceiver::Array { geom, weights } => {
                steering_vector_into(geom, aoa_deg, steer);
                weights.apply(steer)
            }
        }
    }
}

/// Caller-owned scratch buffers for the allocation-free
/// [`GeometricChannel`] kernels. One instance serves any number of calls;
/// buffers grow to a high-water mark on first use and are then reused.
#[derive(Clone, Debug, Default)]
pub struct ChannelScratch {
    /// gNB-side steering: one path's azimuth row, or its whole vector for
    /// the per-element response.
    pub steer: Vec<Complex64>,
    /// UE-side steering vector (directional receivers only).
    pub ue_steer: Vec<Complex64>,
    /// Transmit weights folded onto the gNB's azimuth columns.
    pub folded: Vec<Complex64>,
    /// Per-path compound coefficients `(α_l, τ_l)`.
    pub alphas: Vec<(Complex64, f64)>,
}

/// A frozen snapshot of the multipath channel at one instant.
#[derive(Clone, Debug)]
pub struct GeometricChannel {
    /// Sparse path set (LOS + reflections), already including blockage.
    pub paths: Vec<Path>,
    /// Carrier frequency, Hz.
    pub fc_hz: f64,
}

impl GeometricChannel {
    /// Creates a channel snapshot.
    pub fn new(paths: Vec<Path>, fc_hz: f64) -> Self {
        Self { paths, fc_hz }
    }

    /// Per-path compound coefficient under a transmit beam and receive
    /// pattern, paired with the path delay in seconds:
    /// `α_l = γ_l · g_rx(θ_l) · a(φ_l)ᵀ·w` (paper Eq. 21's per-beam terms).
    pub fn path_alphas(
        &self,
        geom: &ArrayGeometry,
        w: &BeamWeights,
        rx: &UeReceiver,
    ) -> Vec<(Complex64, f64)> {
        let mut scratch = ChannelScratch::default();
        self.path_alphas_into(geom, w, rx, &mut scratch);
        scratch.alphas
    }

    /// Write-into variant of [`GeometricChannel::path_alphas`]: refills
    /// `scratch.alphas`, reusing every `scratch` buffer. The gNB's steering
    /// vectors are tiled azimuth rows, so `w` is folded onto the `nx`
    /// columns once ([`fold_columns_into`]) and each path's array factor
    /// costs `nx` multiply-adds against its azimuth row. Bit-identical to
    /// the allocating version and to the per-slot
    /// [`crate::snapshot::ChannelSnapshot`].
    #[hot_path]
    pub fn path_alphas_into(
        &self,
        geom: &ArrayGeometry,
        w: &BeamWeights,
        rx: &UeReceiver,
        scratch: &mut ChannelScratch,
    ) {
        let ChannelScratch {
            steer,
            ue_steer,
            folded,
            alphas,
        } = scratch;
        fold_columns_into(geom, w, folded);
        alphas.clear();
        for p in &self.paths {
            azimuth_row_into(geom, p.aod_deg, steer);
            let af = folded_array_factor(steer, folded);
            let alpha = p.effective_gain() * rx.gain_toward_with(p.aoa_deg, ue_steer) * af;
            alphas.push((alpha, p.tof_ns * 1e-9));
        }
    }

    /// Effective scalar channel at baseband frequency offset `freq_hz`
    /// under transmit weights `w`.
    pub fn scalar(
        &self,
        geom: &ArrayGeometry,
        w: &BeamWeights,
        rx: &UeReceiver,
        freq_hz: f64,
    ) -> Complex64 {
        self.path_alphas(geom, w, rx)
            .into_iter()
            .map(|(alpha, tau)| alpha * Complex64::cis(-2.0 * PI * freq_hz * tau))
            .sum()
    }

    /// Channel state information across a set of baseband subcarrier
    /// frequencies (Hz offsets from carrier), under transmit weights `w`.
    ///
    /// `freqs_hz` must be a uniform comb, `f_i = f₀ + i·Δf` (the SNR
    /// metric's comb and the sounder's decimated subcarriers both are):
    /// each path's phases are advanced by multiplication from two `cis`
    /// evaluations, and a `debug_assert!` checks the spacing to within
    /// `10⁻⁹·|Δf|`.
    pub fn csi(
        &self,
        geom: &ArrayGeometry,
        w: &BeamWeights,
        rx: &UeReceiver,
        freqs_hz: &[f64],
    ) -> Vec<Complex64> {
        let mut scratch = ChannelScratch::default();
        let mut out = Vec::with_capacity(freqs_hz.len());
        self.csi_into(geom, w, rx, freqs_hz, &mut scratch, &mut out);
        out
    }

    /// Write-into variant of [`GeometricChannel::csi`]: clears `out` and
    /// fills it with one response per frequency, reusing `out` and the
    /// `scratch` buffers. Bit-identical to the allocating version. Same
    /// precondition: `freqs_hz` is a uniform comb.
    #[hot_path]
    pub fn csi_into(
        &self,
        geom: &ArrayGeometry,
        w: &BeamWeights,
        rx: &UeReceiver,
        freqs_hz: &[f64],
        scratch: &mut ChannelScratch,
        out: &mut Vec<Complex64>,
    ) {
        self.path_alphas_into(geom, w, rx, scratch);
        out.clear();
        out.resize(freqs_hz.len(), Complex64::ZERO);
        for &(alpha, tau) in &scratch.alphas {
            add_path(out, alpha, comb_phasors(freqs_hz, tau));
        }
    }

    /// Band-averaged received power (linear, relative to unit transmit
    /// power) under transmit weights `w`: the mean of `|y(f)|²` over the
    /// comb `freqs_hz`, in closed form over the path pairs (module docs of
    /// `bandpower`: `Σ_l |α_l|² + 2·Σ_{l<m} Re(α_l·α_m*)·D_N(Δf·(τ_l − τ_m))`).
    /// `freqs_hz` must be a uniform comb symmetric about the carrier
    /// (checked by `debug_assert!`); an empty channel or comb gives 0. The
    /// same kernel backs [`crate::snapshot::ChannelSnapshot::band_power`],
    /// which caches the pair weights across slots, so the two routes are
    /// bitwise equal.
    pub fn band_power(
        &self,
        geom: &ArrayGeometry,
        w: &BeamWeights,
        rx: &UeReceiver,
        freqs_hz: &[f64],
    ) -> f64 {
        let mut scratch = ChannelScratch::default();
        self.path_alphas_into(geom, w, rx, &mut scratch);
        PairWeights::default().band_power(&scratch.alphas, freqs_hz)
    }

    /// Per-element narrowband channel vector `h[n]` at band center
    /// (including the UE pattern): what a genie with per-antenna RF chains
    /// would measure. Used by the oracle MRT baseline.
    pub fn element_response(&self, geom: &ArrayGeometry, rx: &UeReceiver) -> Vec<Complex64> {
        self.element_response_at(geom, rx, 0.0)
    }

    /// Per-element channel vector at baseband frequency offset `freq_hz`.
    // xtask-allow(hot-path-closure): owned-output variant for analysis callers; the slot loop uses element_response_at_into with reused scratch
    pub fn element_response_at(
        &self,
        geom: &ArrayGeometry,
        rx: &UeReceiver,
        freq_hz: f64,
    ) -> Vec<Complex64> {
        let mut scratch = ChannelScratch::default();
        let mut h = Vec::with_capacity(geom.num_elements());
        self.element_response_at_into(geom, rx, freq_hz, &mut scratch, &mut h);
        h
    }

    /// Write-into variant of [`GeometricChannel::element_response_at`]:
    /// clears `out` and fills it with one entry per gNB element, reusing
    /// `out` and the `scratch` buffers. Bit-identical to the allocating
    /// version.
    #[hot_path]
    pub fn element_response_at_into(
        &self,
        geom: &ArrayGeometry,
        rx: &UeReceiver,
        freq_hz: f64,
        scratch: &mut ChannelScratch,
        out: &mut Vec<Complex64>,
    ) {
        let n = geom.num_elements();
        out.clear();
        out.resize(n, Complex64::ZERO);
        for p in &self.paths {
            steering_vector_into(geom, p.aod_deg, &mut scratch.steer);
            let coeff = p.effective_gain()
                * rx.gain_toward_with(p.aoa_deg, &mut scratch.ue_steer)
                * Complex64::cis(-2.0 * PI * freq_hz * p.tof_ns * 1e-9);
            for (hi, ai) in out.iter_mut().zip(&scratch.steer) {
                *hi += coeff * *ai;
            }
        }
    }

    /// The best *fixed* (frequency-flat) unit-norm transmit weights for
    /// band-averaged received power over the given comb: the principal
    /// eigenvector of the band covariance `R = Σ_f h*(f)·hᵀ(f)`, found by
    /// power iteration. For a narrowband channel this reduces to MRT
    /// (Eq. 4); in wideband multipath it is the true upper bound for any
    /// analog (single-RF-chain, phase-shifter) beamformer.
    // xtask-allow(hot-path-closure): oracle weight synthesis is a genie baseline computed on channel updates, not in the per-slot loop
    pub fn wideband_oracle_weights(
        &self,
        geom: &ArrayGeometry,
        rx: &UeReceiver,
        freqs_hz: &[f64],
    ) -> BeamWeights {
        let n = geom.num_elements();
        if self.paths.is_empty() || freqs_hz.is_empty() {
            return self.optimal_weights(geom, rx);
        }
        let rows: Vec<Vec<Complex64>> = freqs_hz
            .iter()
            .map(|&f| self.element_response_at(geom, rx, f))
            .collect();
        // Power iteration on R·w = Σ_f h*(f)·(h(f)ᵀ·w), starting from MRT.
        let mut w: Vec<Complex64> = self.optimal_weights(geom, rx).into_vec();
        for _ in 0..40 {
            let mut next = vec![Complex64::ZERO; n];
            for h in &rows {
                let proj: Complex64 = h.iter().zip(&w).map(|(a, b)| *a * *b).sum();
                for (nx, hv) in next.iter_mut().zip(h) {
                    *nx += hv.conj() * proj;
                }
            }
            mmwave_dsp::complex::normalize_in_place(&mut next);
            if mmwave_dsp::complex::norm(&next) == 0.0 {
                break;
            }
            w = next;
        }
        BeamWeights::from_vec_normalized(w)
    }

    /// Optimal (maximum-ratio) transmit weights `w = h*/‖h‖` (paper Eq. 4).
    // xtask-allow(hot-path-closure): MRT weights are a genie-baseline product built on channel updates, not in the per-slot loop
    pub fn optimal_weights(&self, geom: &ArrayGeometry, rx: &UeReceiver) -> BeamWeights {
        let h = self.element_response(geom, rx);
        BeamWeights::from_vec_normalized(h.into_iter().map(|v| v.conj()).collect())
    }

    /// Received signal power (linear, relative to unit transmit power) at
    /// band center under weights `w`.
    pub fn received_power(&self, geom: &ArrayGeometry, w: &BeamWeights, rx: &UeReceiver) -> f64 {
        self.scalar(geom, w, rx, 0.0).norm_sqr()
    }

    /// Largest achievable received power: `‖h‖²` (Cauchy–Schwarz bound,
    /// attained by [`GeometricChannel::optimal_weights`]).
    pub fn optimal_power(&self, geom: &ArrayGeometry, rx: &UeReceiver) -> f64 {
        mmwave_dsp::complex::norm_sqr(&self.element_response(geom, rx))
    }
}

/// The phasors `cis(-2π·f_i·τ)` over the uniform comb `freqs_hz`, in
/// order — the one CSI phase kernel, shared by
/// [`GeometricChannel::csi_into`] and the per-slot
/// [`crate::snapshot::ChannelSnapshot`] phase tables so the two stay
/// bit-identical.
///
/// A uniform comb (`f_i = f₀ + i·Δf`) makes the phasors a geometric
/// sequence, so only two `cis` are evaluated: the start
/// `cis(-2π·f₀·τ)` and the step `cis(-2π·Δf·τ)` with
/// `Δf = (f_{n−1} − f₀)/(n − 1)`; every later phasor is the previous one
/// times the step. Exact in arithmetic; in floating point the error grows
/// by about an ulp per step: at most 1.8·10⁻¹² against the per-point `cis`
/// over a 400 MHz comb of up to 4096 points with τ ≤ 2 µs. Precondition,
/// checked by `debug_assert!`: every `f_i` lies within `10⁻⁹·|Δf|` of
/// `f₀ + i·Δf`.
#[hot_path]
pub(crate) fn comb_phasors(freqs_hz: &[f64], tau_s: f64) -> impl Iterator<Item = Complex64> {
    debug_assert!(
        is_uniform_comb(freqs_hz),
        "CSI comb is not uniformly spaced: {freqs_hz:?}"
    );
    let (f0, df) = comb_origin_step(freqs_hz);
    let step = Complex64::cis(-2.0 * PI * df * tau_s);
    let mut e = Complex64::cis(-2.0 * PI * f0 * tau_s);
    (0..freqs_hz.len()).map(move |_| {
        let v = e;
        e *= step;
        v
    })
}

/// `(f₀, Δf)` of a comb, `Δf = (f_{n−1} − f₀)/(n − 1)`; `Δf` is 0 below two
/// points and both are 0 for an empty comb.
pub(crate) fn comb_origin_step(freqs: &[f64]) -> (f64, f64) {
    match (freqs.first(), freqs.last()) {
        (Some(&f0), Some(&f_last)) if freqs.len() > 1 => {
            (f0, (f_last - f0) / (freqs.len() - 1) as f64)
        }
        (Some(&f0), _) => (f0, 0.0),
        _ => (0.0, 0.0),
    }
}

/// True if `freqs` is `f₀ + i·Δf` to within `10⁻⁹·|Δf|` (the
/// [`comb_phasors`] and band-power precondition).
pub(crate) fn is_uniform_comb(freqs: &[f64]) -> bool {
    let (f0, df) = comb_origin_step(freqs);
    freqs
        .iter()
        .enumerate()
        .all(|(i, &f)| (f - (f0 + i as f64 * df)).abs() <= 1e-9 * df.abs())
}

/// Adds one path's contribution `α·e_i` to every comb point of `out`: the
/// path-outer accumulation both CSI routes share, so each point is folded
/// from zero with the paths in order.
#[hot_path]
pub(crate) fn add_path(
    out: &mut [Complex64],
    alpha: Complex64,
    phasors: impl Iterator<Item = Complex64>,
) {
    for (o, e) in out.iter_mut().zip(phasors) {
        *o += alpha * e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathKind;
    use mmwave_array::multibeam::MultiBeam;
    use mmwave_array::steering::single_beam;
    use mmwave_dsp::complex::c64;
    use mmwave_dsp::units::FC_28GHZ;

    fn two_path_channel(delta: f64, sigma: f64) -> GeometricChannel {
        GeometricChannel::new(
            vec![
                Path::new(0.0, 0.0, c64(1.0, 0.0), 20.0, PathKind::Los),
                Path::new(
                    30.0,
                    -40.0,
                    Complex64::from_polar(delta, sigma),
                    25.0,
                    PathKind::Reflected { wall: 0 },
                ),
            ],
            FC_28GHZ,
        )
    }

    #[test]
    fn single_beam_on_single_path_is_optimal() {
        let ch = GeometricChannel::new(
            vec![Path::new(12.0, 0.0, c64(0.8, 0.0), 20.0, PathKind::Los)],
            FC_28GHZ,
        );
        let g = ArrayGeometry::ula(8);
        let w = single_beam(&g, 12.0);
        let p = ch.received_power(&g, &w, &UeReceiver::Omni);
        let opt = ch.optimal_power(&g, &UeReceiver::Omni);
        assert!(
            (p - opt).abs() < 1e-9 * opt,
            "single beam {p} vs optimal {opt}"
        );
        // N·|γ|² = 8·0.64
        assert!((p - 8.0 * 0.64).abs() < 1e-9);
    }

    #[test]
    fn multibeam_snr_gain_follows_one_plus_delta_sq() {
        // Paper Eq. 9: optimal SNR ≈ (1+δ²)·|h|² vs single-beam |h|².
        let g = ArrayGeometry::ula(16);
        for delta in [0.25, 0.5, 1.0] {
            let ch = two_path_channel(delta, 0.9);
            let rx = UeReceiver::Omni;
            let single = ch.received_power(&g, &single_beam(&g, 0.0), &rx);
            let opt = ch.optimal_power(&g, &rx);
            let gain = opt / single;
            assert!(
                (gain - (1.0 + delta * delta)).abs() < 0.02,
                "δ={delta}: gain {gain}"
            );
        }
    }

    #[test]
    fn constructive_multibeam_approaches_oracle() {
        let g = ArrayGeometry::ula(16);
        let delta = 0.7;
        let sigma = -0.7;
        let ch = two_path_channel(delta, sigma);
        let rx = UeReceiver::Omni;
        // Constructive multi-beam built from the true (δ, σ).
        let mb = MultiBeam::two_beam(0.0, 30.0, delta, sigma).weights(&g);
        let p_mb = ch.received_power(&g, &mb, &rx);
        let p_opt = ch.optimal_power(&g, &rx);
        assert!(p_mb > 0.98 * p_opt, "multi-beam {p_mb} vs oracle {p_opt}");
    }

    #[test]
    fn optimal_weights_attain_cauchy_schwarz_bound() {
        let g = ArrayGeometry::ula(8);
        let ch = two_path_channel(0.6, 2.0);
        let rx = UeReceiver::Omni;
        let w = ch.optimal_weights(&g, &rx);
        let p = ch.received_power(&g, &w, &rx);
        assert!((p - ch.optimal_power(&g, &rx)).abs() < 1e-9);
    }

    #[test]
    fn csi_varies_across_band_for_multipath() {
        // Two delays 5 ns apart → frequency-selective CSI.
        let g = ArrayGeometry::ula(8);
        let ch = two_path_channel(1.0, 0.0);
        let w = MultiBeam::two_beam(0.0, 30.0, 1.0, 0.0).weights(&g);
        let freqs: Vec<f64> = (0..100).map(|i| -200e6 + 4e6 * i as f64).collect();
        let csi = ch.csi(&g, &w, &UeReceiver::Omni, &freqs);
        let powers: Vec<f64> = csi.iter().map(|v| v.norm_sqr()).collect();
        let ripple = mmwave_dsp::stats::max(&powers) / mmwave_dsp::stats::min(&powers);
        assert!(
            ripple > 2.0,
            "expected frequency selectivity, ripple {ripple}"
        );
    }

    #[test]
    fn blocked_path_drops_from_alphas() {
        let g = ArrayGeometry::ula(8);
        let mut ch = two_path_channel(0.8, 0.0);
        let w = single_beam(&g, 0.0);
        let p_before = ch.received_power(&g, &w, &UeReceiver::Omni);
        ch.paths[0].blockage_db = 30.0;
        let p_after = ch.received_power(&g, &w, &UeReceiver::Omni);
        assert!(p_after < p_before / 100.0, "{p_after} vs {p_before}");
    }

    #[test]
    fn directional_ue_adds_gain() {
        let g = ArrayGeometry::ula(8);
        let ch = GeometricChannel::new(
            vec![Path::new(0.0, 10.0, c64(1.0, 0.0), 20.0, PathKind::Los)],
            FC_28GHZ,
        );
        let w = single_beam(&g, 0.0);
        let omni = ch.received_power(&g, &w, &UeReceiver::Omni);
        let ue_geom = ArrayGeometry::ula(4);
        let rx = UeReceiver::Array {
            geom: ue_geom,
            weights: single_beam(&ue_geom, 10.0),
        };
        let dir = ch.received_power(&g, &w, &rx);
        // UE array of 4 at unit norm: gain 4 in power.
        assert!((dir / omni - 4.0).abs() < 1e-9);
    }

    #[test]
    fn comb_phasors_match_per_point_cis() {
        // Uniform combs across the widest (400 MHz) band, every length the
        // data plane and the probes use plus the degenerate ones.
        let mut rng = mmwave_dsp::rng::Rng64::seed(0xC0B5);
        let mut worst = 0.0f64;
        // Two delays per comb under Miri, to keep the interpreted run short.
        let delays = if cfg!(miri) { 2 } else { 64 };
        for n in [0usize, 1, 2, 33, 66, 792, 4096] {
            let half = 200e6;
            let freqs: Vec<f64> = (0..n)
                .map(|i| -half + 2.0 * half * i as f64 / (n.max(2) - 1) as f64)
                .collect();
            for k in 0..delays {
                let tau = if k == 0 {
                    2e-6
                } else {
                    rng.uniform_in(0.0, 2e-6)
                };
                let got: Vec<Complex64> = comb_phasors(&freqs, tau).collect();
                assert_eq!(got.len(), n);
                for (e, &f) in got.iter().zip(&freqs) {
                    worst = worst.max((*e - Complex64::cis(-2.0 * PI * f * tau)).abs());
                }
            }
        }
        assert!(worst <= 1e-11, "max |Δ| {worst:e}");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not uniformly spaced")]
    fn non_uniform_comb_is_rejected() {
        let g = ArrayGeometry::ula(8);
        let ch = two_path_channel(0.5, 0.0);
        ch.csi(
            &g,
            &single_beam(&g, 0.0),
            &UeReceiver::Omni,
            &[0.0, 1e6, 3e6],
        );
    }

    #[test]
    fn empty_channel_is_silent() {
        let g = ArrayGeometry::ula(8);
        let ch = GeometricChannel::new(Vec::new(), FC_28GHZ);
        let w = single_beam(&g, 0.0);
        assert_eq!(ch.received_power(&g, &w, &UeReceiver::Omni), 0.0);
        assert_eq!(ch.optimal_power(&g, &UeReceiver::Omni), 0.0);
    }
}
