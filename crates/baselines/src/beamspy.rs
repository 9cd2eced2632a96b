//! BeamSpy-like baseline (Sur et al., NSDI '16).
//!
//! BeamSpy's insight: after one full training scan, the *spatial channel
//! profile* predicts which alternate beam will work when the current one is
//! blocked — so it can switch without a new scan. It remains a single-beam
//! scheme, acts only after quality degrades, and its stored profile goes
//! stale under mobility; both limitations show up in the paper's Fig. 18.

use crate::steer_weights;
use crate::strategy::BeamStrategy;
use mmreliable::frontend::{LinkFrontEnd, ProbeKind};
use mmwave_array::codebook::{uniform_angle_deg, PAPER_SCAN_BEAMS};
use mmwave_array::steering::single_beam_into;
use mmwave_array::weights::BeamWeights;
use mmwave_hotpath::hot_path;
use mmwave_phy::chanest::ProbeObservation;

/// Configuration of the BeamSpy-like baseline.
#[derive(Clone, Debug)]
pub struct BeamSpyConfig {
    /// SNR (dB) below which a switch is attempted.
    pub outage_snr_db: f64,
    /// Minimum angular separation for an "alternate" beam, degrees.
    pub alternate_separation_deg: f64,
    /// Full re-scan when even alternates fail this many times in a row.
    pub fails_before_rescan: usize,
    /// Protocol dead time before a *full* re-scan can run, seconds
    /// (profile-predicted switches are BeamSpy's selling point and stay
    /// instant).
    pub recovery_latency_s: f64,
}

impl Default for BeamSpyConfig {
    fn default() -> Self {
        Self {
            outage_snr_db: 6.0,
            alternate_separation_deg: 10.0,
            fails_before_rescan: 3,
            recovery_latency_s: 0.1,
        }
    }
}

/// BeamSpy-like single-beam management with profile-based fallback.
pub struct BeamSpy {
    cfg: BeamSpyConfig,
    /// Stored spatial profile: (angle, power) from the last full scan.
    profile: Vec<(f64, f64)>,
    /// Scratch every probe fills, maintenance and scan.
    obs: ProbeObservation,
    /// The scan's probe weights, steered in place beam by beam.
    beam: BeamWeights,
    current_idx: Option<usize>,
    weights: Option<BeamWeights>,
    consecutive_fails: usize,
    /// Switches performed without a scan (evaluation counter).
    pub profile_switches: usize,
    /// Full scans performed (evaluation counter).
    pub full_scans: usize,
}

impl BeamSpy {
    /// Creates the baseline.
    pub fn new(cfg: BeamSpyConfig) -> Self {
        Self {
            cfg,
            profile: Vec::new(),
            obs: ProbeObservation::empty(),
            beam: BeamWeights::muted(1),
            current_idx: None,
            weights: None,
            consecutive_fails: 0,
            profile_switches: 0,
            full_scans: 0,
        }
    }

    /// Current beam angle.
    // xtask-allow(hot-path-panic): current_idx is only ever set by pick_best from an enumerate over profile, so it indexes in bounds
    pub fn beam_angle_deg(&self) -> Option<f64> {
        self.current_idx.map(|i| self.profile[i].0)
    }

    fn full_scan(&mut self, fe: &mut dyn LinkFrontEnd) {
        let geom = *fe.geometry();
        self.profile.clear();
        for i in 0..PAPER_SCAN_BEAMS {
            let angle = uniform_angle_deg(PAPER_SCAN_BEAMS, i);
            single_beam_into(&geom, angle, &mut self.beam);
            fe.probe_kind_into(&self.beam, ProbeKind::Ssb, &mut self.obs);
            self.profile.push((angle, self.obs.mean_power_mw()));
        }
        self.full_scans += 1;
        self.consecutive_fails = 0;
        self.pick_best(&geom, None);
    }

    /// Steers at the strongest profile entry that carries power, optionally
    /// excluding directions near `avoid_deg`; keeps the current beam (or
    /// none, so the next tick rescans) when no entry qualifies.
    fn pick_best(&mut self, geom: &mmwave_array::geometry::ArrayGeometry, avoid_deg: Option<f64>) {
        let pick = self
            .profile
            .iter()
            .enumerate()
            .filter(|&(_, &(a, p))| {
                p > 0.0
                    && match avoid_deg {
                        Some(av) => (a - av).abs() >= self.cfg.alternate_separation_deg,
                        None => true,
                    }
            })
            .max_by(|(_, (_, p1)), (_, (_, p2))| p1.total_cmp(p2))
            .map(|(i, _)| i);
        if let Some(i) = pick {
            debug_assert!(i < self.profile.len());
            self.current_idx = Some(i);
            let angle = self.profile[i].0;
            steer_weights(&mut self.weights, |w| single_beam_into(geom, angle, w));
        }
    }
}

impl BeamStrategy for BeamSpy {
    fn name(&self) -> &'static str {
        "BeamSpy"
    }

    // xtask-allow(hot-path-panic): the expect is unreachable — the is_none early return three lines up guarantees the weights are Some here
    fn on_tick(&mut self, fe: &mut dyn LinkFrontEnd, _t_s: f64) {
        if self.weights.is_none() {
            self.full_scan(fe);
            return;
        }
        fe.probe_into(self.weights.as_ref().expect("trained"), &mut self.obs);
        if self.obs.snr_db() >= self.cfg.outage_snr_db {
            self.consecutive_fails = 0;
            return;
        }
        self.consecutive_fails += 1;
        if self.consecutive_fails >= self.cfg.fails_before_rescan {
            fe.wait(self.cfg.recovery_latency_s);
            self.full_scan(fe);
            return;
        }
        // Profile-predicted switch: best direction away from the failing one.
        let geom = *fe.geometry();
        let avoid = self.beam_angle_deg();
        self.pick_best(&geom, avoid);
        self.profile_switches += 1;
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
    fn a_scan_that_sees_no_power_leaves_the_link_untrained() {
        // A pathless, noiseless channel: every profile entry is zero, so
        // there is no beam to pick and the next tick scans again.
        let mut sounder = ChannelSounder::paper_indoor();
        sounder.noise_boost = 0.0;
        let mut fe = SnapshotFrontEnd::new(
            GeometricChannel::new(Vec::new(), FC_28GHZ),
            sounder,
            ArrayGeometry::ula(8),
            UeReceiver::Omni,
            Rng64::seed(1),
        );
        let mut s = BeamSpy::new(BeamSpyConfig::default());
        s.on_tick(&mut fe, 0.0);
        assert_eq!(s.beam_angle_deg(), None);
        s.on_tick(&mut fe, 0.01);
        assert_eq!(s.full_scans, 2);
        assert_eq!(s.beam_angle_deg(), None);
    }

    #[test]
    fn initial_scan_builds_profile_and_picks_los() {
        let mut fe = frontend(1);
        let mut s = BeamSpy::new(BeamSpyConfig::default());
        s.on_tick(&mut fe, 0.0);
        assert_eq!(s.full_scans, 1);
        assert_eq!(s.profile.len(), 64);
        assert_eq!(fe.probes_used(), 64);
        let angle = s.beam_angle_deg().unwrap();
        assert!((angle - 7.3).abs() < 3.0, "beam at {angle}");
    }

    #[test]
    fn blockage_switch_without_scan() {
        let mut fe = frontend(2);
        let mut s = BeamSpy::new(BeamSpyConfig::default());
        s.on_tick(&mut fe, 0.0);
        let probes_after_scan = fe.probes_used();
        // A blocker in front of the UE occludes both collinear rays: the
        // LOS and the far-wall bounce that returns along almost the same
        // departure angle.
        fe.channel.paths[0].blockage_db = 40.0;
        fe.channel.paths[3].blockage_db = 40.0;
        s.on_tick(&mut fe, 0.0);
        // One maintenance probe, then a profile switch — no new scan.
        assert_eq!(fe.probes_used() - probes_after_scan, 1);
        assert_eq!(s.profile_switches, 1);
        assert_eq!(s.full_scans, 1);
        let angle = s.beam_angle_deg().unwrap();
        assert!(angle.abs() > 10.0, "switched to a reflector: {angle}");
    }

    #[test]
    fn repeated_failure_forces_rescan() {
        let mut fe = frontend(3);
        let mut s = BeamSpy::new(BeamSpyConfig::default());
        s.on_tick(&mut fe, 0.0);
        for p in fe.channel.paths.iter_mut() {
            p.blockage_db = 50.0; // everything dead
        }
        for _ in 0..5 {
            s.on_tick(&mut fe, 0.0);
        }
        assert!(s.full_scans >= 2, "should eventually re-scan");
    }

    #[test]
    fn healthy_link_single_probe() {
        let mut fe = frontend(4);
        let mut s = BeamSpy::new(BeamSpyConfig::default());
        s.on_tick(&mut fe, 0.0);
        let before = fe.probes_used();
        for _ in 0..4 {
            s.on_tick(&mut fe, 0.0);
        }
        assert_eq!(fe.probes_used() - before, 4);
        assert_eq!(s.profile_switches, 0);
    }
}
