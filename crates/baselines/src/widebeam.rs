//! Wide-beam baseline (Fig. 18b's "widebeam").
//!
//! Instead of tracking, this scheme broadens its beam by driving only a
//! subset of azimuth elements, so moderate user motion stays inside the
//! main lobe. The price is array gain — roughly `10·log₁₀(N/active)` dB —
//! which costs both SNR headroom (blockage margin) and throughput.

use crate::steer_weights;
use crate::strategy::BeamStrategy;
use mmreliable::frontend::{LinkFrontEnd, ProbeKind};
use mmwave_array::codebook::uniform_angle_deg;
use mmwave_array::steering::wide_beam_into;
use mmwave_array::weights::BeamWeights;
use mmwave_hotpath::hot_path;
use mmwave_phy::chanest::ProbeObservation;

/// Beams of the wide-beam scan: its lobes are broad, so few probes suffice.
const SCAN_BEAMS: usize = 16;

/// Configuration of the wide-beam baseline.
#[derive(Clone, Debug)]
pub struct WideBeamConfig {
    /// Active azimuth elements (out of the array's azimuth count).
    pub active_elements: usize,
    /// Re-scan when SNR drops below this for `fails_before_rescan` ticks.
    pub outage_snr_db: f64,
    /// Consecutive failures before a re-scan.
    pub fails_before_rescan: usize,
}

impl Default for WideBeamConfig {
    fn default() -> Self {
        Self {
            active_elements: 4,
            outage_snr_db: 6.0,
            // The wide-beam philosophy is "no reaction": the broad lobe is
            // supposed to absorb change. Effectively never rescan within an
            // experiment (the paper's widebeam baseline, Fig. 18b).
            fails_before_rescan: 1000,
        }
    }
}

/// Wide-beam, low-maintenance beam management.
pub struct WideBeamStrategy {
    cfg: WideBeamConfig,
    angle_deg: Option<f64>,
    weights: Option<BeamWeights>,
    consecutive_fails: usize,
    /// Scratch every probe fills, maintenance and scan.
    obs: ProbeObservation,
    /// The scan's probe weights, steered in place beam by beam.
    beam: BeamWeights,
    /// Scans performed (evaluation counter).
    pub scans: usize,
}

impl WideBeamStrategy {
    /// Creates the baseline.
    pub fn new(cfg: WideBeamConfig) -> Self {
        Self {
            cfg,
            angle_deg: None,
            weights: None,
            consecutive_fails: 0,
            obs: ProbeObservation::empty(),
            beam: BeamWeights::muted(1),
            scans: 0,
        }
    }

    fn scan(&mut self, fe: &mut dyn LinkFrontEnd) {
        let geom = *fe.geometry();
        // A coarse scan with the wide beam itself.
        let mut best: Option<(f64, f64)> = None;
        let active = self.cfg.active_elements;
        for i in 0..SCAN_BEAMS {
            let angle = uniform_angle_deg(SCAN_BEAMS, i);
            wide_beam_into(&geom, angle, active, &mut self.beam);
            fe.probe_kind_into(&self.beam, ProbeKind::Ssb, &mut self.obs);
            let p = self.obs.mean_power_mw();
            if best.is_none_or(|(bp, _)| p > bp) {
                best = Some((p, angle));
            }
        }
        if let Some((p, angle)) = best {
            if p > 0.0 {
                self.angle_deg = Some(angle);
                steer_weights(&mut self.weights, |w| {
                    wide_beam_into(&geom, angle, active, w)
                });
            }
        }
        self.scans += 1;
        self.consecutive_fails = 0;
    }
}

impl BeamStrategy for WideBeamStrategy {
    fn name(&self) -> &'static str {
        "widebeam"
    }

    // xtask-allow(hot-path-panic): the expect is unreachable — the is_none early return three lines up guarantees the weights are Some here
    fn on_tick(&mut self, fe: &mut dyn LinkFrontEnd, _t_s: f64) {
        if self.weights.is_none() {
            self.scan(fe);
            return;
        }
        fe.probe_into(self.weights.as_ref().expect("trained"), &mut self.obs);
        if self.obs.snr_db() < self.cfg.outage_snr_db {
            self.consecutive_fails += 1;
            if self.consecutive_fails >= self.cfg.fails_before_rescan {
                self.scan(fe);
            }
        } else {
            self.consecutive_fails = 0;
        }
    }

    // xtask-allow(hot-path-closure): the trait's owned-weights accessor clones by contract; the per-slot loop calls weights_into, which copies into a reused buffer
    fn weights(&self) -> BeamWeights {
        match &self.weights {
            Some(w) => w.clone(),
            None => BeamWeights::muted(self.beam.len()),
        }
    }

    #[hot_path]
    fn weights_into(&self, out: &mut BeamWeights) {
        match &self.weights {
            Some(w) => out.copy_from(w),
            None => out.set_muted(self.beam.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmreliable::frontend::SnapshotFrontEnd;
    use mmwave_array::geometry::ArrayGeometry;
    use mmwave_array::pattern::power_gain_db;
    use mmwave_array::steering::{single_beam, wide_beam};
    use mmwave_channel::channel::{GeometricChannel, UeReceiver};
    use mmwave_channel::environment::Scene;
    use mmwave_channel::geom2d::v2;
    use mmwave_dsp::rng::Rng64;
    use mmwave_dsp::units::FC_28GHZ;
    use mmwave_phy::chanest::ChannelSounder;

    fn frontend(seed: u64) -> SnapshotFrontEnd {
        let scene = Scene::conference_room(FC_28GHZ);
        let paths = scene.paths_to(v2(0.9, 7.0), 180.0);
        SnapshotFrontEnd::new(
            GeometricChannel::new(paths, FC_28GHZ),
            ChannelSounder::paper_indoor(),
            ArrayGeometry::paper_8x8(),
            UeReceiver::Omni,
            Rng64::seed(seed),
        )
    }

    #[test]
    fn trains_and_points_near_los() {
        let mut fe = frontend(1);
        let mut s = WideBeamStrategy::new(WideBeamConfig::default());
        s.on_tick(&mut fe, 0.0);
        assert_eq!(s.scans, 1);
        let angle = s.angle_deg.unwrap();
        assert!((angle - 7.3).abs() < 10.0, "beam at {angle}");
    }

    #[test]
    fn wide_beam_has_lower_peak_gain() {
        let g = ArrayGeometry::paper_8x8();
        let wide = wide_beam(&g, 0.0, 2);
        let narrow = single_beam(&g, 0.0);
        let gw = power_gain_db(&g, &wide, 0.0);
        let gn = power_gain_db(&g, &narrow, 0.0);
        assert!(gn - gw > 4.0, "narrow {gn} vs wide {gw}");
    }

    #[test]
    fn tolerates_misalignment_without_action() {
        let mut fe = frontend(2);
        let mut s = WideBeamStrategy::new(WideBeamConfig::default());
        s.on_tick(&mut fe, 0.0);
        // Move all paths by 8° — well outside a narrow beam's lobe but
        // inside the wide one.
        for p in fe.channel.paths.iter_mut() {
            p.aod_deg += 8.0;
        }
        for _ in 0..4 {
            s.on_tick(&mut fe, 0.0);
        }
        assert_eq!(s.scans, 1, "no re-scan needed under moderate motion");
    }

    #[test]
    fn deep_outage_eventually_rescans_when_configured() {
        let mut fe = frontend(3);
        let cfg = WideBeamConfig {
            fails_before_rescan: 4,
            ..WideBeamConfig::default()
        };
        let mut s = WideBeamStrategy::new(cfg);
        s.on_tick(&mut fe, 0.0);
        for p in fe.channel.paths.iter_mut() {
            p.blockage_db = 50.0;
        }
        for _ in 0..6 {
            s.on_tick(&mut fe, 0.0);
        }
        assert!(s.scans >= 2);
    }

    #[test]
    fn default_widebeam_is_passive() {
        let mut fe = frontend(4);
        let mut s = WideBeamStrategy::new(WideBeamConfig::default());
        s.on_tick(&mut fe, 0.0);
        for p in fe.channel.paths.iter_mut() {
            p.blockage_db = 50.0;
        }
        for _ in 0..10 {
            s.on_tick(&mut fe, 0.0);
        }
        assert_eq!(s.scans, 1, "passive widebeam never rescans");
    }
}
