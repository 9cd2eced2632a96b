//! Channel sounding and estimation — the only window the beam-management
//! layer has onto the channel.
//!
//! A [`ChannelSounder`] turns a frozen channel snapshot plus a transmit
//! beam into a [`ProbeObservation`]: least-squares CSI estimates on the
//! reference-signal comb, corrupted by
//!
//! - per-subcarrier AWGN at the link budget's noise floor, and
//! - an unknown common phase rotation per probe (CFO/SFO residuals — the
//!   impairment that forces the paper's magnitude-only two-probe estimator,
//!   §3.3: "hardware offsets … cause time-varying and sometimes
//!   unpredictable channel phases … The channel magnitude is the one thing
//!   that remains fixed").

use crate::grid::ResourceGrid;
use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::weights::BeamWeights;
use mmwave_channel::channel::{ChannelScratch, GeometricChannel, UeReceiver};
use mmwave_channel::linkbudget::LinkBudget;
use mmwave_channel::snapshot::ChannelSnapshot;
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::fft::ifft;
use mmwave_dsp::rng::{Rng64, NORMAL_BATCH};
use mmwave_dsp::units::{db_from_pow, mw_from_dbm, SPEED_OF_LIGHT};
use mmwave_hotpath::hot_path;

/// One probe's worth of estimated CSI.
#[derive(Clone, Debug, Default)]
pub struct ProbeObservation {
    /// Estimated CSI per sounded subcarrier, in √mW units (so
    /// `|csi|²/noise_power_mw` is the per-subcarrier SNR).
    pub csi: Vec<Complex64>,
    /// Sounded subcarrier frequencies (Hz offsets from carrier).
    pub freqs_hz: Vec<f64>,
    /// Per-subcarrier noise power, mW (known at the receiver).
    pub noise_power_mw: f64,
}

impl ProbeObservation {
    /// An empty observation, suitable as reusable scratch for
    /// [`ChannelSounder::probe_snapshot_into`]-style fillers: the `Vec`
    /// buffers grow to the comb size on first use and are reused after.
    pub fn empty() -> Self {
        Self {
            csi: Vec::new(),
            freqs_hz: Vec::new(),
            noise_power_mw: 0.0,
        }
    }

    /// Overwrites this observation with `other`, reusing its buffers.
    pub fn copy_from(&mut self, other: &ProbeObservation) {
        self.csi.clear();
        self.csi.extend_from_slice(&other.csi);
        self.freqs_hz.clear();
        self.freqs_hz.extend_from_slice(&other.freqs_hz);
        self.noise_power_mw = other.noise_power_mw;
    }

    /// Mean received power across the comb, mW, de-biased by the noise
    /// floor (floored at 0).
    pub fn mean_power_mw(&self) -> f64 {
        if self.csi.is_empty() {
            return 0.0;
        }
        let raw: f64 = self.csi.iter().map(|v| v.norm_sqr()).sum::<f64>() / self.csi.len() as f64;
        (raw - self.noise_power_mw).max(0.0)
    }

    /// Wideband SNR estimate (linear).
    pub fn snr_linear(&self) -> f64 {
        self.mean_power_mw() / self.noise_power_mw
    }

    /// Wideband SNR estimate, dB (floored at −60).
    pub fn snr_db(&self) -> f64 {
        db_from_pow(self.snr_linear().max(1e-6)).max(-60.0)
    }

    /// Band-limited CIR obtained by inverse-DFT of the sounded comb.
    /// Tap spacing is `1/(n·Δf)` where `Δf` is the comb spacing; the
    /// unambiguous delay range is `1/Δf`.
    pub fn cir(&self) -> Vec<Complex64> {
        ifft(&self.csi)
    }

    /// Frequency step of the sounding comb, Hz.
    // xtask-allow(hot-path-panic): the len < 2 early return guarantees indices 0 and 1 exist
    pub fn comb_spacing_hz(&self) -> f64 {
        if self.freqs_hz.len() < 2 {
            return 0.0;
        }
        self.freqs_hz[1] - self.freqs_hz[0]
    }
}

/// The sounding front end: budget + grid + impairments.
#[derive(Clone, Debug)]
pub struct ChannelSounder {
    /// Link budget (TX power, noise).
    pub budget: LinkBudget,
    /// OFDM grid being sounded.
    pub grid: ResourceGrid,
    /// Sound every `decimation`-th subcarrier (CSI-RS comb density).
    pub decimation: usize,
    /// Apply the CFO/SFO common-phase impairment per probe.
    pub cfo_impairment: bool,
    /// Extra estimation-noise factor (1.0 = thermal only); lets failure-
    /// injection tests degrade estimation quality.
    pub noise_boost: f64,
}

impl ChannelSounder {
    /// The paper's indoor sounder: 400 MHz grid, CSI-RS comb of one
    /// subcarrier per RB (decimation 12), CFO impairment on.
    pub fn paper_indoor() -> Self {
        Self {
            budget: LinkBudget::paper_28ghz(),
            grid: ResourceGrid::paper_400mhz(),
            decimation: 12,
            cfo_impairment: true,
            noise_boost: 1.0,
        }
    }

    /// The outdoor 100 MHz sounder.
    pub fn paper_outdoor() -> Self {
        Self {
            budget: LinkBudget::paper_outdoor_100mhz(),
            grid: ResourceGrid::paper_100mhz(),
            decimation: 12,
            cfo_impairment: true,
            noise_boost: 1.0,
        }
    }

    /// Per-subcarrier noise power in mW after the estimation-noise boost.
    pub fn noise_power_mw(&self) -> f64 {
        // Thermal noise over one subcarrier's bandwidth.
        let per_sc_db = mmwave_dsp::units::thermal_noise_dbm(
            self.grid.numerology.scs_hz(),
            self.budget.noise_figure_db,
        );
        mw_from_dbm(per_sc_db) * self.noise_boost
    }

    /// Sounds the channel under transmit weights `w`, returning the noisy
    /// probe observation. One call = one reference-signal transmission.
    pub fn probe(
        &self,
        ch: &GeometricChannel,
        geom: &ArrayGeometry,
        w: &BeamWeights,
        rx: &UeReceiver,
        rng: &mut Rng64,
    ) -> ProbeObservation {
        let mut scratch = ChannelScratch::default();
        let mut obs = ProbeObservation {
            csi: Vec::new(),
            freqs_hz: Vec::new(),
            noise_power_mw: 0.0,
        };
        self.probe_into(ch, geom, w, rx, rng, &mut scratch, &mut obs);
        obs
    }

    /// Write-into variant of [`ChannelSounder::probe`]: refreshes `obs` in
    /// place, reusing its buffers plus the channel `scratch`. Draws from
    /// `rng` in the same order as the allocating version (common phasor
    /// first, then one AWGN sample per sounded subcarrier), so fixed-seed
    /// runs are bit-identical through either entry point.
    #[allow(clippy::too_many_arguments)]
    #[hot_path]
    pub fn probe_into(
        &self,
        ch: &GeometricChannel,
        geom: &ArrayGeometry,
        w: &BeamWeights,
        rx: &UeReceiver,
        rng: &mut Rng64,
        scratch: &mut ChannelScratch,
        obs: &mut ProbeObservation,
    ) {
        self.grid
            .sounding_freqs_into(self.decimation, &mut obs.freqs_hz);
        ch.csi_into(geom, w, rx, &obs.freqs_hz, scratch, &mut obs.csi);
        self.corrupt(link_distance_m(ch), rng, obs);
    }

    /// Snapshot-backed probe: reads the true CSI from a per-slot
    /// [`ChannelSnapshot`] (already rebuilt at the probe instant) instead of
    /// re-deriving per-path steering from the raw channel. Bit-identical to
    /// [`ChannelSounder::probe`] on the snapshot's frozen channel.
    #[hot_path]
    pub fn probe_snapshot_into(
        &self,
        snap: &mut ChannelSnapshot,
        w: &BeamWeights,
        rng: &mut Rng64,
        obs: &mut ProbeObservation,
    ) {
        self.grid
            .sounding_freqs_into(self.decimation, &mut obs.freqs_hz);
        snap.csi_into(w, &obs.freqs_hz, &mut obs.csi);
        self.corrupt(link_distance_m(snap.channel()), rng, obs);
    }

    /// The impairment tail shared by every probe entry point: scales the
    /// true CSI in `obs.csi` by the per-subcarrier transmit amplitude and
    /// atmospheric absorption, applies the common CFO phasor, and adds
    /// per-subcarrier AWGN.
    fn corrupt(&self, link_distance_m: f64, rng: &mut Rng64, obs: &mut ProbeObservation) {
        // Per-subcarrier transmit amplitude: total power spread evenly.
        // Transmit power spread evenly over the occupied grid; per-subcarrier
        // SNR then equals the wideband budget SNR (noise scales the same way).
        let tx_mw = mw_from_dbm(self.budget.tx_power_dbm);
        let per_sc_amp = (tx_mw / self.grid.n_subcarriers as f64).sqrt();
        let atmo =
            mmwave_dsp::units::amp_from_db(-self.budget.atmospheric_absorption_db(link_distance_m));
        let common = if self.cfo_impairment {
            rng.random_phasor()
        } else {
            Complex64::ONE
        };
        let noise_mw = self.noise_power_mw();
        // `Rng64::awgn` per subcarrier, drawn as batches: the same uniforms
        // in the same order, scaled by the same `√pow`.
        let noise_amp = noise_mw.sqrt();
        let mut noise = [Complex64::ZERO; NORMAL_BATCH];
        for chunk in obs.csi.chunks_mut(NORMAL_BATCH) {
            debug_assert!(chunk.len() <= noise.len());
            let noise = &mut noise[..chunk.len()];
            rng.complex_normals_into(noise);
            for (h, n) in chunk.iter_mut().zip(noise.iter()) {
                *h = common * h.scale(per_sc_amp * atmo) + n.scale(noise_amp);
            }
        }
        obs.noise_power_mw = noise_mw;
    }
}

/// Straight-line link distance implied by the earliest path's ToF.
fn link_distance_m(ch: &GeometricChannel) -> f64 {
    ch.paths
        .iter()
        .map(|p| p.tof_ns)
        .fold(f64::INFINITY, f64::min)
        .max(0.0)
        * 1e-9
        * SPEED_OF_LIGHT
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_array::steering::single_beam;
    use mmwave_channel::path::{Path, PathKind};
    use mmwave_dsp::complex::c64;
    use mmwave_dsp::units::{amp_from_db, fspl_db, FC_28GHZ};

    fn los_channel(dist_m: f64) -> GeometricChannel {
        let amp = amp_from_db(-fspl_db(dist_m, FC_28GHZ));
        GeometricChannel::new(
            vec![Path::new(
                0.0,
                0.0,
                c64(amp, 0.0),
                dist_m / SPEED_OF_LIGHT * 1e9,
                PathKind::Los,
            )],
            FC_28GHZ,
        )
    }

    #[test]
    fn probe_snr_matches_link_budget() {
        // 7 m LOS with a 64-element beam → the paper's ~27 dB region.
        let sounder = ChannelSounder::paper_indoor();
        let geom = ArrayGeometry::paper_8x8();
        let w = single_beam(&geom, 0.0);
        let ch = los_channel(7.0);
        let mut rng = Rng64::seed(1);
        let obs = sounder.probe(&ch, &geom, &w, &UeReceiver::Omni, &mut rng);
        let snr = obs.snr_db();
        assert!((snr - 27.0).abs() < 4.0, "snr {snr} dB");
    }

    #[test]
    fn snr_estimate_consistent_across_probes() {
        let sounder = ChannelSounder::paper_indoor();
        let geom = ArrayGeometry::paper_8x8();
        let w = single_beam(&geom, 0.0);
        let ch = los_channel(7.0);
        let mut rng = Rng64::seed(2);
        let snrs: Vec<f64> = (0..20)
            .map(|_| {
                sounder
                    .probe(&ch, &geom, &w, &UeReceiver::Omni, &mut rng)
                    .snr_db()
            })
            .collect();
        let spread = mmwave_dsp::stats::max(&snrs) - mmwave_dsp::stats::min(&snrs);
        assert!(spread < 1.0, "probe-to-probe spread {spread} dB");
    }

    #[test]
    fn cfo_randomizes_phase_but_not_magnitude() {
        let sounder = ChannelSounder::paper_indoor();
        let geom = ArrayGeometry::paper_8x8();
        let w = single_beam(&geom, 0.0);
        let ch = los_channel(7.0);
        let mut rng = Rng64::seed(3);
        let a = sounder.probe(&ch, &geom, &w, &UeReceiver::Omni, &mut rng);
        let b = sounder.probe(&ch, &geom, &w, &UeReceiver::Omni, &mut rng);
        let dphase = (a.csi[0].arg() - b.csi[0].arg()).abs();
        // Phases differ probe-to-probe (almost surely)…
        assert!(dphase > 1e-3, "phases should be unreliable across probes");
        // …magnitude-derived power doesn't.
        assert!((a.snr_db() - b.snr_db()).abs() < 1.0);
    }

    #[test]
    fn disabling_cfo_gives_stable_phase() {
        let mut sounder = ChannelSounder::paper_indoor();
        sounder.cfo_impairment = false;
        sounder.noise_boost = 1e-6; // near-noiseless
        let geom = ArrayGeometry::paper_8x8();
        let w = single_beam(&geom, 0.0);
        let ch = los_channel(7.0);
        let mut rng = Rng64::seed(4);
        let a = sounder.probe(&ch, &geom, &w, &UeReceiver::Omni, &mut rng);
        let b = sounder.probe(&ch, &geom, &w, &UeReceiver::Omni, &mut rng);
        assert!((a.csi[5].arg() - b.csi[5].arg()).abs() < 1e-3);
    }

    #[test]
    fn mean_power_debiases_noise() {
        // With zero channel, the de-biased mean power must sit near zero,
        // not at the noise floor.
        let sounder = ChannelSounder::paper_indoor();
        let geom = ArrayGeometry::paper_8x8();
        let w = single_beam(&geom, 0.0);
        let ch = GeometricChannel::new(Vec::new(), FC_28GHZ);
        let mut rng = Rng64::seed(5);
        let obs = sounder.probe(&ch, &geom, &w, &UeReceiver::Omni, &mut rng);
        assert!(obs.mean_power_mw() < obs.noise_power_mw * 0.3);
    }

    #[test]
    fn cir_peak_at_path_delay() {
        let mut sounder = ChannelSounder::paper_indoor();
        sounder.cfo_impairment = false;
        let geom = ArrayGeometry::paper_8x8();
        let w = single_beam(&geom, 0.0);
        let ch = los_channel(7.0);
        let mut rng = Rng64::seed(6);
        let obs = sounder.probe(&ch, &geom, &w, &UeReceiver::Omni, &mut rng);
        let cir = obs.cir();
        // LOS delay 23.35 ns; tap spacing 1/(264·1.44MHz)=2.63ns → tap ≈ 9.
        let peak = cir
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .unwrap()
            .0;
        let tap_s = 1.0 / (obs.comb_spacing_hz() * cir.len() as f64);
        let delay_ns = peak as f64 * tap_s * 1e9;
        assert!(
            (delay_ns - 23.35).abs() < 2.0 * tap_s * 1e9,
            "peak at {delay_ns} ns"
        );
    }

    #[test]
    fn batched_noise_equals_per_subcarrier_awgn() {
        // The corrupt tail draws its AWGN as batches; it must equal one
        // `Rng64::awgn` per subcarrier after the CFO phasor, bit for bit.
        let sounder = ChannelSounder::paper_indoor();
        let geom = ArrayGeometry::paper_8x8();
        let w = single_beam(&geom, 10.0);
        let ch = los_channel(7.0);
        let mut noiseless = sounder.clone();
        noiseless.cfo_impairment = false;
        noiseless.noise_boost = 0.0;
        let truth = noiseless.probe(&ch, &geom, &w, &UeReceiver::Omni, &mut Rng64::seed(0));
        let mut rng = Rng64::seed(8);
        let mut oracle_rng = rng.clone();
        let got = sounder.probe(&ch, &geom, &w, &UeReceiver::Omni, &mut rng);
        let common = oracle_rng.random_phasor();
        let noise_mw = sounder.noise_power_mw();
        assert_eq!(got.csi.len(), 264);
        for (g, h) in got.csi.iter().zip(&truth.csi) {
            let want = common * *h + oracle_rng.awgn(noise_mw);
            assert_eq!(
                (g.re.to_bits(), g.im.to_bits()),
                (want.re.to_bits(), want.im.to_bits())
            );
        }
        assert_eq!(rng.uniform().to_bits(), oracle_rng.uniform().to_bits());
    }

    #[test]
    fn noise_boost_degrades_snr() {
        let geom = ArrayGeometry::paper_8x8();
        let w = single_beam(&geom, 0.0);
        let ch = los_channel(7.0);
        let mut clean = ChannelSounder::paper_indoor();
        clean.noise_boost = 1.0;
        let mut dirty = clean.clone();
        dirty.noise_boost = 100.0;
        let mut rng = Rng64::seed(7);
        let s_clean = clean
            .probe(&ch, &geom, &w, &UeReceiver::Omni, &mut rng)
            .snr_db();
        let s_dirty = dirty
            .probe(&ch, &geom, &w, &UeReceiver::Omni, &mut rng)
            .snr_db();
        assert!(s_clean - s_dirty > 15.0, "{s_clean} vs {s_dirty}");
    }
}
