//! Per-slot channel snapshot: evaluate the environment once, read it many
//! times.
//!
//! The simulator's original per-slot dataflow re-derived everything from
//! [`DynamicChannel`] at each consumer: the sounder, the strategy's truth
//! observer, and the SNR metric each called
//! [`DynamicChannel::channel_at`] (which itself traces the scene twice —
//! once for the current pose, once for the t = 0 reference list) and then
//! rebuilt per-path steering vectors from scratch. [`ChannelSnapshot`]
//! hoists all of that into one `rebuild` per time step:
//!
//! - the frozen [`GeometricChannel`] (path list with blockage applied),
//! - the cached t = 0 reference path list (time-invariant — traced once per
//!   run, not once per query),
//! - per-path gNB azimuth steering rows (flat `n_paths × nx`: every row of
//!   the tiled zero-elevation steering vector `a(φ_l)` is the same),
//! - per-path beam-independent coefficients `γ_l·g_rx(θ_l)`,
//! - per-path delays `τ_l` (seconds),
//! - the CSI phase table `cis(-2π·f·τ_l)` of the last comb sounded (the
//!   sounder's probe comb),
//! - the band-power pair weights `D_N(Δf·(τ_l − τ_m))` of the last comb
//!   averaged over (the SNR metric's).
//!
//! Every reader then costs only inner products against the cached rows
//! (`nx` multiply-adds per path against the column-folded weights); no
//! buffer is reallocated in steady state. **Invalidation rule (DESIGN.md
//! §8): advancing simulation time invalidates the snapshot** — callers must
//! `rebuild` before reading at a new `t_s`. [`ChannelSnapshot::is_valid_at`]
//! makes the rule checkable.
//!
//! Bit-identity: all derived quantities use the same kernels
//! ([`azimuth_row_into`], [`fold_columns_into`], the comb recurrence, the
//! band-power pair weights) and
//! the same floating-point association order as the allocating
//! [`GeometricChannel`] methods they replace, so fixed-seed runs are
//! bit-identical whichever route computes them.

use crate::bandpower::PairWeights;
use crate::channel::{add_path, comb_phasors, GeometricChannel, UeReceiver};
use crate::dynamics::DynamicChannel;
use crate::path::Path;
use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::steering::{azimuth_row_into, fold_columns_into, folded_array_factor};
use mmwave_array::weights::BeamWeights;
use mmwave_dsp::complex::Complex64;
use mmwave_hotpath::hot_path;

/// A reusable, per-slot view of the channel: path list plus every
/// beam-independent per-path quantity, computed once per time step.
#[derive(Clone, Debug)]
pub struct ChannelSnapshot {
    /// Simulation time this snapshot is valid for (`None` until the first
    /// rebuild).
    t_s: Option<f64>,
    /// Frozen channel at `t_s` (paths rebuilt in place each slot).
    channel: GeometricChannel,
    /// Cached t = 0 reference path list (blockage index space).
    reference: Vec<Path>,
    reference_built: bool,
    /// Cached pristine scene trace and the pose key
    /// `(pos.x, pos.y, facing_deg)` bits it was traced for. Static
    /// trajectories hit this cache on every slot, skipping the ray trace.
    traced: Vec<Path>,
    traced_pose: Option<(u64, u64, u64)>,
    /// AoD list the steering rows were built for (bitwise): rows are
    /// reused while no path's AoD moves.
    row_aods: Vec<f64>,
    /// Per-path gNB azimuth steering rows, flat `n_paths × nx`.
    steer_rows: Vec<Complex64>,
    /// Cached CSI phase table of the last comb sounded. Delays only move
    /// when the pose moves, so repeated probes at a static pose skip all
    /// the `cis` calls.
    phase_table: PhaseTable,
    /// Cached band-power pair weights of the last comb averaged over;
    /// like the phase table, reused while the delays do not move.
    pairs: PairWeights,
    /// Per-path beam-independent coefficient `γ_l · g_rx(θ_l)`.
    coeffs: Vec<Complex64>,
    /// Per-path delay, seconds.
    delays_s: Vec<f64>,
    /// The gNB array the rows were built for (a one-element placeholder
    /// until the first rebuild).
    geom: ArrayGeometry,
    /// Scratch: UE-side steering vector (directional receivers only).
    ue_steer: Vec<Complex64>,
    /// Scratch: transmit weights folded onto the azimuth columns.
    folded: Vec<Complex64>,
    /// Scratch: per-path `(α_l, τ_l)` for a given transmit beam.
    alphas: Vec<(Complex64, f64)>,
}

impl Default for ChannelSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

impl ChannelSnapshot {
    /// Creates an empty snapshot; invalid until the first
    /// [`ChannelSnapshot::rebuild`].
    pub fn new() -> Self {
        Self {
            t_s: None,
            channel: GeometricChannel::new(Vec::new(), 0.0),
            reference: Vec::new(),
            reference_built: false,
            traced: Vec::new(),
            traced_pose: None,
            row_aods: Vec::new(),
            steer_rows: Vec::new(),
            phase_table: PhaseTable::default(),
            pairs: PairWeights::default(),
            coeffs: Vec::new(),
            delays_s: Vec::new(),
            geom: ArrayGeometry::ula(1),
            ue_steer: Vec::new(),
            folded: Vec::new(),
            alphas: Vec::new(),
        }
    }

    /// Re-evaluates the environment at `t_s` and refreshes every cached
    /// quantity, reusing all internal buffers. Call once per time step,
    /// before any reader; `geom` and `rx` must be the same link-constant
    /// values on every call (the cached rows are specific to them).
    #[hot_path]
    pub fn rebuild(
        &mut self,
        dynamic: &DynamicChannel,
        geom: &ArrayGeometry,
        rx: &UeReceiver,
        t_s: f64,
    ) {
        if !self.reference_built {
            dynamic.reference_paths_into(&mut self.reference);
            self.reference_built = true;
        }
        // Trace the scene only when the pose actually moved (bitwise key):
        // for static trajectories the trace is time-invariant and only the
        // blockage/rotation effects vary.
        let pose = dynamic.pose_at(t_s);
        let pose_key = (
            pose.pos.x.to_bits(),
            pose.pos.y.to_bits(),
            pose.facing_deg.to_bits(),
        );
        if self.traced_pose != Some(pose_key) {
            // Routed through the dynamic channel so a fleet's shared cell
            // cache (precomputed gNB images) serves the trace when
            // installed; bit-identical to the direct scene trace.
            dynamic.trace_pose_into(&pose, &mut self.traced);
            self.traced_pose = Some(pose_key);
        }
        self.channel.paths.clear();
        self.channel.paths.extend_from_slice(&self.traced);
        dynamic.apply_time_effects(t_s, &self.reference, &mut self.channel.paths);
        self.channel.fc_hz = dynamic.scene.fc_hz;
        self.geom = *geom;

        // Steering rows depend only on the AoD list: reuse them while every
        // AoD is bitwise-unchanged (blockage varies attenuation, not
        // geometry), rebuild otherwise.
        let rows_valid = self.row_aods.len() == self.channel.paths.len()
            && self.steer_rows.len() == self.row_aods.len() * geom.azimuth_elements()
            && self
                .row_aods
                .iter()
                .zip(&self.channel.paths)
                .all(|(a, p)| a.to_bits() == p.aod_deg.to_bits());
        if !rows_valid {
            self.steer_rows.clear();
            self.row_aods.clear();
            for p in &self.channel.paths {
                // `azimuth_row_into` needs a whole Vec; build the row in the
                // UE scratch and append, so rows stay one flat allocation.
                azimuth_row_into(geom, p.aod_deg, &mut self.ue_steer);
                self.steer_rows.extend_from_slice(&self.ue_steer);
                self.row_aods.push(p.aod_deg);
            }
        }

        // Per-path beam-independent coefficient and delay (cheap; the
        // coefficient carries the time-varying blockage attenuation).
        self.coeffs.clear();
        self.delays_s.clear();
        for p in &self.channel.paths {
            self.coeffs
                .push(p.effective_gain() * rx.gain_toward_with(p.aoa_deg, &mut self.ue_steer));
            self.delays_s.push(p.tof_ns * 1e-9);
        }

        self.t_s = Some(t_s);
    }

    /// True if the snapshot was last rebuilt at exactly `t_s` (bitwise
    /// comparison — the simulator's clock is deterministic).
    pub fn is_valid_at(&self, t_s: f64) -> bool {
        self.t_s.map(f64::to_bits) == Some(t_s.to_bits())
    }

    /// The frozen channel at the snapshot time. Panics if never rebuilt.
    pub fn channel(&self) -> &GeometricChannel {
        assert!(self.t_s.is_some(), "snapshot read before first rebuild");
        &self.channel
    }

    /// Cached t = 0 reference path list.
    pub fn reference_paths(&self) -> &[Path] {
        &self.reference
    }

    /// Refills `self.alphas` with the per-path compound coefficients
    /// `(α_l, τ_l)` under transmit weights `w` — the snapshot-backed
    /// equivalent of [`GeometricChannel::path_alphas_into`], folding `w`
    /// the same way and reading the cached azimuth rows.
    #[hot_path]
    fn path_alphas_into(&mut self, w: &BeamWeights) {
        debug_assert_eq!(self.coeffs.len(), self.delays_s.len());
        fold_columns_into(&self.geom, w, &mut self.folded);
        let rows = self.steer_rows.chunks_exact(self.geom.azimuth_elements());
        self.alphas.clear();
        for ((row, &coeff), &tau) in rows.zip(&self.coeffs).zip(&self.delays_s) {
            self.alphas
                .push((coeff * folded_array_factor(row, &self.folded), tau));
        }
    }

    /// CSI across the uniform comb `freqs_hz` under transmit weights `w`,
    /// written into `out` — the snapshot-backed equivalent of
    /// [`GeometricChannel::csi`] (same precondition). Bit-identical to
    /// querying the frozen channel directly.
    #[hot_path]
    pub fn csi_into(&mut self, w: &BeamWeights, freqs_hz: &[f64], out: &mut Vec<Complex64>) {
        debug_assert!(self.t_s.is_some(), "snapshot read before first rebuild");
        self.path_alphas_into(w);
        let table = &mut self.phase_table;
        if !table.matches(freqs_hz, &self.delays_s) {
            table.fill(freqs_hz, &self.delays_s);
        }
        out.clear();
        out.resize(freqs_hz.len(), Complex64::ZERO);
        // Same path-outer accumulation as `GeometricChannel::csi_into`,
        // with the phasors read from the cached table: bit-identical and
        // `cis`-free.
        let rows = table.table.chunks_exact(freqs_hz.len().max(1));
        for (&(alpha, _), row) in self.alphas.iter().zip(rows) {
            add_path(out, alpha, row.iter().copied());
        }
    }

    /// Band-averaged received power under transmit weights `w` over the
    /// comb `freqs_hz` — the snapshot-backed equivalent of
    /// [`GeometricChannel::band_power`] (same kernel, same precondition:
    /// a uniform comb symmetric about the carrier), bit-identical to it.
    /// The pair weights are cached keyed by the comb and the delays, so
    /// while the delays do not move a read costs the path coefficients
    /// plus O(L²) multiply-adds and no trig.
    #[hot_path]
    pub fn band_power(&mut self, w: &BeamWeights, freqs_hz: &[f64]) -> f64 {
        debug_assert!(self.t_s.is_some(), "snapshot read before first rebuild");
        self.path_alphas_into(w);
        self.pairs.band_power(&self.alphas, freqs_hz)
    }
}

/// One cached CSI phase table `cis(-2π·f·τ)`, flat `n_paths × n_freqs`
/// (one comb row per path), keyed bitwise by the frequency comb and delay
/// list it was built for.
#[derive(Clone, Debug, Default)]
struct PhaseTable {
    freqs: Vec<f64>,
    delays: Vec<f64>,
    table: Vec<Complex64>,
}

impl PhaseTable {
    fn matches(&self, freqs_hz: &[f64], delays_s: &[f64]) -> bool {
        bitwise_eq(&self.freqs, freqs_hz) && bitwise_eq(&self.delays, delays_s)
    }

    fn fill(&mut self, freqs_hz: &[f64], delays_s: &[f64]) {
        self.freqs.clear();
        self.freqs.extend_from_slice(freqs_hz);
        self.delays.clear();
        self.delays.extend_from_slice(delays_s);
        self.table.clear();
        for &tau in delays_s {
            self.table.extend(comb_phasors(freqs_hz, tau));
        }
    }
}

/// True if `a` and `b` hold the same values bit for bit.
pub(crate) fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockage::BlockageProcess;
    use crate::environment::Scene;
    use crate::mobility::Trajectory;
    use mmwave_array::steering::single_beam;
    use mmwave_dsp::units::FC_28GHZ;

    fn walker() -> DynamicChannel {
        DynamicChannel::new(
            Scene::conference_room(FC_28GHZ),
            Trajectory::paper_translation(crate::geom2d::v2(0.0, 7.0)),
            BlockageProcess::none(),
        )
    }

    #[test]
    fn snapshot_csi_matches_direct_query_bitwise() {
        let dc = walker();
        let geom = ArrayGeometry::paper_8x8();
        let rx = UeReceiver::Omni;
        let w = single_beam(&geom, 5.0);
        let freqs: Vec<f64> = (0..33).map(|i| -200e6 + 12.5e6 * i as f64).collect();
        let mut snap = ChannelSnapshot::new();
        let mut got = Vec::new();
        for t in [0.0, 0.13, 0.57] {
            snap.rebuild(&dc, &geom, &rx, t);
            snap.csi_into(&w, &freqs, &mut got);
            let want = dc.channel_at(t).csi(&geom, &w, &rx, &freqs);
            assert_eq!(got.len(), want.len());
            for (g, e) in got.iter().zip(&want) {
                assert_eq!(g.re.to_bits(), e.re.to_bits(), "t={t}");
                assert_eq!(g.im.to_bits(), e.im.to_bits(), "t={t}");
            }
        }
    }

    #[test]
    fn validity_follows_rebuild_time() {
        let dc = walker();
        let geom = ArrayGeometry::paper_8x8();
        let mut snap = ChannelSnapshot::new();
        assert!(!snap.is_valid_at(0.0));
        snap.rebuild(&dc, &geom, &UeReceiver::Omni, 0.1);
        assert!(snap.is_valid_at(0.1));
        assert!(!snap.is_valid_at(0.2));
        snap.rebuild(&dc, &geom, &UeReceiver::Omni, 0.2);
        assert!(snap.is_valid_at(0.2));
    }

    #[test]
    fn alternating_combs_match_direct_query_bitwise() {
        // Combs read in turn refill the one phase table whenever the comb
        // changes; every read must still equal the direct query.
        let dc = walker();
        let geom = ArrayGeometry::paper_8x8();
        let rx = UeReceiver::Omni;
        let w = single_beam(&geom, -7.0);
        let snr: Vec<f64> = (0..33).map(|i| -200e6 + 12.5e6 * i as f64).collect();
        let probe: Vec<f64> = (0..20).map(|i| -190e6 + 20e6 * i as f64).collect();
        let third = [-50e6, 50e6];
        let mut snap = ChannelSnapshot::new();
        let mut got = Vec::new();
        for t in [0.0, 0.0, 0.21, 0.21, 0.44] {
            snap.rebuild(&dc, &geom, &rx, t);
            for freqs in [&snr[..], &probe[..], &snr[..], &third[..], &probe[..]] {
                snap.csi_into(&w, freqs, &mut got);
                let want = dc.channel_at(t).csi(&geom, &w, &rx, freqs);
                assert_eq!(got.len(), want.len());
                for (g, e) in got.iter().zip(&want) {
                    assert_eq!(g.re.to_bits(), e.re.to_bits(), "t={t}");
                    assert_eq!(g.im.to_bits(), e.im.to_bits(), "t={t}");
                }
            }
        }
    }

    #[test]
    fn band_power_matches_direct_query_bitwise() {
        // Cached pair weights (same instant, static pose) and rebuilt ones
        // (a moved pose) both equal a cold direct query, interleaved with
        // probe-comb CSI reads that share nothing with the band power.
        let geom = ArrayGeometry::paper_8x8();
        let rx = UeReceiver::Omni;
        let comb: Vec<f64> = (0..33).map(|i| -200e6 + 12.5e6 * i as f64).collect();
        let probe: Vec<f64> = (0..20).map(|i| -190e6 + 20e6 * i as f64).collect();
        let mut csi = Vec::new();
        for dc in [
            walker(),
            DynamicChannel::new(
                Scene::conference_room(FC_28GHZ),
                Trajectory::paper_rotation(crate::geom2d::v2(0.4, 6.0)),
                BlockageProcess::none(),
            ),
        ] {
            let mut snap = ChannelSnapshot::new();
            for t in [0.0, 0.0, 0.21, 0.44, 0.44] {
                snap.rebuild(&dc, &geom, &rx, t);
                for angle in [-7.0, 12.0] {
                    let w = single_beam(&geom, angle);
                    let got = snap.band_power(&w, &comb);
                    snap.csi_into(&w, &probe, &mut csi);
                    let want = dc.channel_at(t).band_power(&geom, &w, &rx, &comb);
                    assert_eq!(got.to_bits(), want.to_bits(), "t={t}");
                }
            }
        }
    }

    #[test]
    fn directional_ue_snapshot_matches_direct() {
        let dc = walker();
        let geom = ArrayGeometry::paper_8x8();
        let ue_geom = ArrayGeometry::ula(4);
        let rx = UeReceiver::Array {
            geom: ue_geom,
            weights: single_beam(&ue_geom, 0.0),
        };
        let w = single_beam(&geom, 10.0);
        let freqs = [-100e6, 0.0, 100e6];
        let mut snap = ChannelSnapshot::new();
        snap.rebuild(&dc, &geom, &rx, 0.3);
        let mut got = Vec::new();
        snap.csi_into(&w, &freqs, &mut got);
        let want = dc.channel_at(0.3).csi(&geom, &w, &rx, &freqs);
        for (g, e) in got.iter().zip(&want) {
            assert_eq!(g.re.to_bits(), e.re.to_bits());
            assert_eq!(g.im.to_bits(), e.im.to_bits());
        }
    }
}
