//! Vanilla 5G-NR periodic beam management (Fig. 18d's overhead subject).
//!
//! Standard NR beam management without mmReliable's maintenance layer:
//! every SSB burst period (default 20 ms), the base station re-runs beam
//! training — we grant it the *best known* fast scan (2·log₂N SSB probes,
//! Hassanieh-style) rather than the exhaustive sweep, matching the paper's
//! generous accounting — and points a single beam at the winner. Between
//! scans nothing adapts.

use crate::fast_scan;
use crate::strategy::BeamStrategy;
use mmreliable::frontend::LinkFrontEnd;
use mmwave_array::weights::BeamWeights;
use mmwave_hotpath::hot_path;
use mmwave_phy::chanest::ProbeObservation;

/// Configuration of the periodic-NR baseline.
#[derive(Clone, Debug)]
pub struct NrPeriodicConfig {
    /// SSB burst period, seconds (NR default 20 ms).
    pub scan_period_s: f64,
}

impl Default for NrPeriodicConfig {
    fn default() -> Self {
        Self {
            scan_period_s: 20e-3,
        }
    }
}

/// Periodically re-scanning single-beam NR baseline.
pub struct NrPeriodic {
    cfg: NrPeriodicConfig,
    weights: Option<BeamWeights>,
    next_scan_s: f64,
    /// Scans performed (evaluation counter).
    pub scans: usize,
    /// Current beam angle.
    pub angle_deg: Option<f64>,
    /// Scratch every scan probe fills.
    obs: ProbeObservation,
    /// The scan's probe weights, steered in place beam by beam.
    beam: BeamWeights,
}

impl NrPeriodic {
    /// Creates the baseline.
    pub fn new(cfg: NrPeriodicConfig) -> Self {
        Self {
            cfg,
            weights: None,
            next_scan_s: 0.0,
            scans: 0,
            angle_deg: None,
            obs: ProbeObservation::empty(),
            beam: BeamWeights::muted(1),
        }
    }

    fn scan(&mut self, fe: &mut dyn LinkFrontEnd) {
        if let Some(angle) = fast_scan(fe, &mut self.beam, &mut self.obs, &mut self.weights) {
            self.angle_deg = Some(angle);
        }
        self.scans += 1;
    }
}

impl BeamStrategy for NrPeriodic {
    fn name(&self) -> &'static str {
        "5G NR periodic"
    }

    fn on_tick(&mut self, fe: &mut dyn LinkFrontEnd, t_s: f64) {
        if t_s >= self.next_scan_s || self.weights.is_none() {
            self.scan(fe);
            self.next_scan_s = t_s + self.cfg.scan_period_s;
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
    use mmwave_channel::channel::{GeometricChannel, UeReceiver};
    use mmwave_channel::environment::Scene;
    use mmwave_channel::geom2d::v2;
    use mmwave_dsp::rng::Rng64;
    use mmwave_dsp::units::FC_28GHZ;
    use mmwave_phy::chanest::ChannelSounder;

    fn frontend(seed: u64) -> SnapshotFrontEnd {
        frontend_on(ArrayGeometry::paper_8x8(), seed)
    }

    fn frontend_on(geom: ArrayGeometry, seed: u64) -> SnapshotFrontEnd {
        let scene = Scene::conference_room(FC_28GHZ);
        let paths = scene.paths_to(v2(0.9, 7.0), 180.0);
        SnapshotFrontEnd::new(
            GeometricChannel::new(paths, FC_28GHZ),
            ChannelSounder::paper_indoor(),
            geom,
            UeReceiver::Omni,
            Rng64::seed(seed),
        )
    }

    #[test]
    fn scans_on_schedule() {
        let mut fe = frontend(1);
        let mut s = NrPeriodic::new(NrPeriodicConfig::default());
        s.on_tick(&mut fe, 0.0);
        assert_eq!(s.scans, 1);
        // Ticks inside the same period do nothing.
        s.on_tick(&mut fe, 5e-3);
        s.on_tick(&mut fe, 15e-3);
        assert_eq!(s.scans, 1);
        // Past the period boundary → scan.
        s.on_tick(&mut fe, 21e-3);
        assert_eq!(s.scans, 2);
    }

    #[test]
    fn paper_overhead_per_scan() {
        // 64 antennas → 12 SSB probes → 6 ms per scan (Fig. 18d).
        let mut fe = frontend(2);
        let mut s = NrPeriodic::new(NrPeriodicConfig::default());
        s.on_tick(&mut fe, 0.0);
        assert!((fe.probe_airtime_s() - 6e-3).abs() < 1e-9);
        // Against a 20 ms period that is a 30% airtime overhead —
        // the paper's point about vanilla NR.
        let overhead = fe.probe_airtime_s() / 20e-3;
        assert!(overhead > 0.25, "overhead {overhead}");
    }

    #[test]
    fn eight_antenna_scan_costs_3ms() {
        let mut fe = frontend_on(ArrayGeometry::ula(8), 3);
        let mut s = NrPeriodic::new(NrPeriodicConfig::default());
        s.on_tick(&mut fe, 0.0);
        assert!(s.angle_deg.is_some(), "an 8-element scan still trains");
        assert!((fe.probe_airtime_s() - 3e-3).abs() < 1e-9);
    }

    #[test]
    fn tracks_slow_motion_at_scan_cadence() {
        let mut fe = frontend(4);
        let mut s = NrPeriodic::new(NrPeriodicConfig::default());
        s.on_tick(&mut fe, 0.0);
        let a0 = s.angle_deg.unwrap();
        for p in fe.channel.paths.iter_mut() {
            p.aod_deg += 10.0;
        }
        s.on_tick(&mut fe, 25e-3);
        let a1 = s.angle_deg.unwrap();
        assert!(a1 > a0 + 5.0, "rescan should follow the user: {a0} → {a1}");
    }
}
