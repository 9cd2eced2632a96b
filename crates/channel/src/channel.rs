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
//! - the band-limited sampled CIR (paper Eq. 22).

use crate::path::Path;
use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::steering::steering_vector_into;
use mmwave_array::weights::BeamWeights;
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::sinc::pulse_train_into;
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
    /// boresight).
    pub fn gain_toward(&self, aoa_deg: f64) -> Complex64 {
        let mut scratch = Vec::new();
        self.gain_toward_with(aoa_deg, &mut scratch)
    }

    /// Allocation-free variant of [`UeReceiver::gain_toward`]: `steer` is a
    /// caller-owned scratch buffer reused for the UE steering vector (unused
    /// for an omni UE).
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
    /// gNB-side steering vector (one path at a time).
    pub steer: Vec<Complex64>,
    /// UE-side steering vector (directional receivers only).
    pub ue_steer: Vec<Complex64>,
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
        let mut steer = Vec::new();
        let mut ue_steer = Vec::new();
        let mut out = Vec::with_capacity(self.paths.len());
        self.path_alphas_into(geom, w, rx, &mut steer, &mut ue_steer, &mut out);
        out
    }

    /// Write-into variant of [`GeometricChannel::path_alphas`]: clears `out`
    /// and fills it, reusing `out` plus the gNB-side (`steer`) and UE-side
    /// (`ue_steer`) steering scratch buffers. Bit-identical to the
    /// allocating version (same per-path expression and association order).
    #[hot_path]
    pub fn path_alphas_into(
        &self,
        geom: &ArrayGeometry,
        w: &BeamWeights,
        rx: &UeReceiver,
        steer: &mut Vec<Complex64>,
        ue_steer: &mut Vec<Complex64>,
        out: &mut Vec<(Complex64, f64)>,
    ) {
        out.clear();
        for p in &self.paths {
            steering_vector_into(geom, p.aod_deg, steer);
            let af = w.apply(steer);
            let alpha = p.effective_gain() * rx.gain_toward_with(p.aoa_deg, ue_steer) * af;
            out.push((alpha, p.tof_ns * 1e-9));
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
    /// `scratch` buffers. Bit-identical to the allocating version.
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
        let ChannelScratch {
            steer,
            ue_steer,
            alphas,
        } = scratch;
        self.path_alphas_into(geom, w, rx, steer, ue_steer, alphas);
        Self::csi_from_alphas(alphas, freqs_hz, out);
    }

    /// CSI across `freqs_hz` from precomputed per-path `(α_l, τ_l)` pairs —
    /// the frequency-sweep core shared by [`GeometricChannel::csi_into`] and
    /// the per-slot [`crate::snapshot::ChannelSnapshot`].
    pub fn csi_from_alphas(
        alphas: &[(Complex64, f64)],
        freqs_hz: &[f64],
        out: &mut Vec<Complex64>,
    ) {
        out.clear();
        out.extend(freqs_hz.iter().map(|&f| {
            alphas
                .iter()
                .map(|&(alpha, tau)| alpha * Complex64::cis(-2.0 * PI * f * tau))
                .sum::<Complex64>()
        }));
    }

    /// Band-limited sampled channel impulse response (paper Eq. 22):
    /// `h_eff[n] = Σ_l α_l · sinc(B·(n·Ts − τ_l))`, with delays re-referenced
    /// to the earliest path (plus `guard_s` of leading margin so early sinc
    /// sidelobes are visible).
    pub fn cir(
        &self,
        geom: &ArrayGeometry,
        w: &BeamWeights,
        rx: &UeReceiver,
        bw_hz: f64,
        n_taps: usize,
        guard_s: f64,
    ) -> Vec<Complex64> {
        let mut scratch = ChannelScratch::default();
        let mut out = Vec::with_capacity(n_taps);
        self.cir_into(geom, w, rx, bw_hz, n_taps, guard_s, &mut scratch, &mut out);
        out
    }

    /// Write-into variant of [`GeometricChannel::cir`]: clears `out` and
    /// fills it with `n_taps` samples, reusing `out` and the `scratch`
    /// buffers (the delay re-referencing happens in place on
    /// `scratch.alphas`).
    #[allow(clippy::too_many_arguments)]
    #[hot_path]
    pub fn cir_into(
        &self,
        geom: &ArrayGeometry,
        w: &BeamWeights,
        rx: &UeReceiver,
        bw_hz: f64,
        n_taps: usize,
        guard_s: f64,
        scratch: &mut ChannelScratch,
        out: &mut Vec<Complex64>,
    ) {
        let ChannelScratch {
            steer,
            ue_steer,
            alphas,
        } = scratch;
        self.path_alphas_into(geom, w, rx, steer, ue_steer, alphas);
        let t0 = alphas
            .iter()
            .map(|&(_, tau)| tau)
            .fold(f64::INFINITY, f64::min);
        let ts = 1.0 / bw_hz;
        for tap in alphas.iter_mut() {
            tap.1 = tap.1 - t0 + guard_s;
        }
        pulse_train_into(n_taps, bw_hz, ts, alphas, out);
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
    fn cir_shows_two_taps_at_path_delays() {
        let g = ArrayGeometry::ula(8);
        let ch = two_path_channel(0.8, 0.0);
        let w = MultiBeam::two_beam(0.0, 30.0, 0.8, 0.0).weights(&g);
        let bw = 400e6;
        let ts = 1.0 / bw; // 2.5 ns
                           // Δτ = 5 ns = 2 taps; guard of 2 taps.
        let cir = ch.cir(&g, &w, &UeReceiver::Omni, bw, 16, 2.0 * ts);
        let mags: Vec<f64> = cir.iter().map(|v| v.abs()).collect();
        // Peaks at taps 2 (LOS) and 4 (reflection).
        assert!(mags[2] > mags[3] && mags[2] > mags[1]);
        assert!(mags[4] > mags[5] && mags[4] > mags[3]);
        assert!(mags[2] > mags[4], "LOS tap should dominate");
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
    fn empty_channel_is_silent() {
        let g = ArrayGeometry::ula(8);
        let ch = GeometricChannel::new(Vec::new(), FC_28GHZ);
        let w = single_beam(&g, 0.0);
        assert_eq!(ch.received_power(&g, &w, &UeReceiver::Omni), 0.0);
        assert_eq!(ch.optimal_power(&g, &UeReceiver::Omni), 0.0);
    }
}
