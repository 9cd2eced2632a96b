//! The single-beam reactive baseline (paper §6.2's "Reactive baseline",
//! modeled on Hassanieh et al., SIGCOMM '18).
//!
//! One directional beam toward the best trained direction. Nothing is done
//! proactively: only when the measured SNR falls below the outage threshold
//! does the scheme react, by running a fast beam training (probe count
//! ∝ 2·log₂N, each an SSB) and jumping to the new best direction. The scan
//! itself costs airtime during which the link carries no data — the heart
//! of why reactive schemes lose reliability.

use crate::fast_scan;
use crate::strategy::BeamStrategy;
use mmreliable::frontend::LinkFrontEnd;
use mmwave_array::weights::BeamWeights;
use mmwave_hotpath::hot_path;
use mmwave_phy::chanest::ProbeObservation;

/// Configuration of the reactive baseline.
#[derive(Clone, Debug)]
pub struct ReactiveConfig {
    /// SNR (dB) below which a re-scan is triggered.
    pub outage_snr_db: f64,
    /// Minimum ticks between consecutive re-scans (hysteresis).
    pub rescan_holdoff_ticks: usize,
    /// Consecutive bad measurements before declaring beam failure
    /// (3GPP-style beam-failure detection).
    pub detection_ticks: usize,
    /// Protocol dead time of the beam-failure-recovery procedure before
    /// the re-scan can run (waiting for SSB/RACH opportunities), seconds.
    pub recovery_latency_s: f64,
}

impl Default for ReactiveConfig {
    fn default() -> Self {
        Self {
            outage_snr_db: 6.0,
            rescan_holdoff_ticks: 2,
            detection_ticks: 3,
            recovery_latency_s: 0.1,
        }
    }
}

/// Single-beam reactive beam management.
pub struct SingleBeamReactive {
    cfg: ReactiveConfig,
    beam_angle_deg: Option<f64>,
    weights: Option<BeamWeights>,
    ticks_since_scan: usize,
    bad_ticks: usize,
    /// Scratch for every probe, maintenance and scan: reused across
    /// ticks so maintenance and rescans are allocation-free (DESIGN.md §8).
    obs: ProbeObservation,
    /// The scan's probe weights, steered in place beam by beam.
    beam: BeamWeights,
    /// Number of re-trainings triggered (exposed for evaluation).
    pub rescans: usize,
}

impl SingleBeamReactive {
    /// Creates the baseline.
    pub fn new(cfg: ReactiveConfig) -> Self {
        Self {
            cfg,
            beam_angle_deg: None,
            weights: None,
            ticks_since_scan: usize::MAX / 2,
            bad_ticks: 0,
            obs: ProbeObservation::empty(),
            beam: BeamWeights::muted(1),
            rescans: 0,
        }
    }

    /// Current beam angle, if trained.
    pub fn beam_angle_deg(&self) -> Option<f64> {
        self.beam_angle_deg
    }

    /// Fast beam training ([`fast_scan`]) onto the strongest response.
    fn fast_scan(&mut self, fe: &mut dyn LinkFrontEnd) {
        if let Some(angle) = fast_scan(fe, &mut self.beam, &mut self.obs, &mut self.weights) {
            self.beam_angle_deg = Some(angle);
        }
        self.rescans += 1;
        self.ticks_since_scan = 0;
    }
}

impl BeamStrategy for SingleBeamReactive {
    fn name(&self) -> &'static str {
        "single-beam reactive"
    }

    // xtask-allow(hot-path-panic): the expect is unreachable — the is_none early return three lines up guarantees the weights are Some here
    fn on_tick(&mut self, fe: &mut dyn LinkFrontEnd, _t_s: f64) {
        self.ticks_since_scan = self.ticks_since_scan.saturating_add(1);
        if self.weights.is_none() {
            self.fast_scan(fe);
            return;
        }
        // One maintenance probe to measure link quality, into reused
        // scratch — this runs every tick for the life of the link.
        fe.probe_into(self.weights.as_ref().expect("trained"), &mut self.obs);
        if self.obs.snr_db() < self.cfg.outage_snr_db {
            self.bad_ticks += 1;
        } else {
            self.bad_ticks = 0;
        }
        // Beam-failure detection + RACH-based recovery, then the scan.
        if self.bad_ticks >= self.cfg.detection_ticks
            && self.ticks_since_scan > self.cfg.rescan_holdoff_ticks
        {
            fe.wait(self.cfg.recovery_latency_s);
            self.fast_scan(fe);
            self.bad_ticks = 0;
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
    fn first_tick_trains_to_los() {
        let mut fe = frontend(1);
        let mut s = SingleBeamReactive::new(ReactiveConfig::default());
        s.on_tick(&mut fe, 0.0);
        let angle = s.beam_angle_deg().expect("trained");
        // LOS is at 7.3°; the sparse fast scan may land a few degrees off.
        assert!((angle - 7.3).abs() < 8.0, "beam at {angle}");
        assert_eq!(s.rescans, 1);
    }

    #[test]
    fn fast_scan_uses_log_probes() {
        let mut fe = frontend(2);
        let mut s = SingleBeamReactive::new(ReactiveConfig::default());
        s.on_tick(&mut fe, 0.0);
        // 2·log2(64) = 12 SSB probes for the initial scan.
        assert_eq!(fe.probes_used(), 12);
        assert!((fe.probe_airtime_s() - 12.0 * 0.5e-3).abs() < 1e-12);
    }

    #[test]
    fn healthy_link_costs_one_probe_per_tick() {
        let mut fe = frontend(3);
        let mut s = SingleBeamReactive::new(ReactiveConfig::default());
        s.on_tick(&mut fe, 0.0);
        let before = fe.probes_used();
        for _ in 0..5 {
            s.on_tick(&mut fe, 0.0);
        }
        assert_eq!(fe.probes_used() - before, 5);
        assert_eq!(s.rescans, 1);
    }

    #[test]
    fn outage_triggers_rescan() {
        let mut fe = frontend(4);
        let mut s = SingleBeamReactive::new(ReactiveConfig::default());
        s.on_tick(&mut fe, 0.0);
        s.on_tick(&mut fe, 0.0);
        s.on_tick(&mut fe, 0.0);
        // Kill every path (deep blockage).
        for p in fe.channel.paths.iter_mut() {
            p.blockage_db = 40.0;
        }
        let rescans_before = s.rescans;
        // Beam-failure detection needs `detection_ticks` consecutive bad
        // measurements before the recovery procedure runs.
        for _ in 0..ReactiveConfig::default().detection_ticks {
            s.on_tick(&mut fe, 0.0);
        }
        assert_eq!(s.rescans, rescans_before + 1, "should react to outage");
    }

    #[test]
    fn reacts_to_los_blockage_by_switching_path() {
        let mut fe = frontend(5);
        let mut s = SingleBeamReactive::new(ReactiveConfig::default());
        s.on_tick(&mut fe, 0.0);
        s.on_tick(&mut fe, 0.0);
        s.on_tick(&mut fe, 0.0);
        let before = s.beam_angle_deg().unwrap();
        // Block the LOS and the collinear far-wall bounce.
        fe.channel.paths[0].blockage_db = 40.0;
        fe.channel.paths[3].blockage_db = 40.0;
        for _ in 0..4 {
            s.on_tick(&mut fe, 0.0);
        }
        let after = s.beam_angle_deg().unwrap();
        assert!(
            (after - before).abs() > 10.0,
            "should switch to a reflector: {before} → {after}"
        );
    }

    #[test]
    fn untrained_weights_are_muted() {
        let s = SingleBeamReactive::new(ReactiveConfig::default());
        assert_eq!(s.weights().norm(), 0.0);
    }
}
