//! Human-blockage processes.
//!
//! The paper's empirical signature (§4.1): a walking blocker drives a beam's
//! amplitude down ~10 dB within about 10 OFDM symbols (~0.9 ms at 120 kHz
//! SCS, i.e. a very steep ramp on the timescale of CSI-RS probes), the deep
//! fade can reach 20–30 dB (§3.1, MacCartney et al.), and experiment-scale
//! blockages last 100–500 ms (§6.2). We model a blockage event as a
//! trapezoid in dB: ramp down, hold, ramp up.

use crate::path::Path;
use mmwave_dsp::rng::Rng64;

/// A single blockage event applied to one path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockageEvent {
    /// Index of the affected path in the scene's path list.
    pub path_idx: usize,
    /// Event start time, seconds.
    pub start_s: f64,
    /// Ramp duration (down and up), seconds.
    pub ramp_s: f64,
    /// Depth of the fade at full blockage, dB.
    pub depth_db: f64,
    /// Duration of the fully-blocked hold, seconds.
    pub hold_s: f64,
}

impl BlockageEvent {
    /// The paper's nominal event: 10 dB/0.9 ms ramp to the given depth.
    /// Panics on invalid inputs (see [`BlockageEvent::validate`]).
    pub fn nominal(path_idx: usize, start_s: f64, depth_db: f64, hold_s: f64) -> Self {
        // 10 dB per 10 OFDM symbols (8.93 µs each) → scale ramp to depth.
        let ramp_s = depth_db / 10.0 * 10.0 * 8.93e-6;
        let e = Self {
            path_idx,
            start_s,
            ramp_s,
            depth_db,
            hold_s,
        };
        if let Err(msg) = e.validate() {
            panic!("invalid blockage event: {msg}");
        }
        e
    }

    /// Checks the event is physically meaningful: all times finite, start
    /// non-negative, ramp/hold non-negative, depth non-negative.
    // xtask-allow(hot-path-closure): error strings are built on the Err path only; a valid event allocates nothing
    pub fn validate(&self) -> Result<(), String> {
        if !self.start_s.is_finite() || self.start_s < 0.0 {
            return Err(format!("start_s {} must be finite and >= 0", self.start_s));
        }
        if !self.ramp_s.is_finite() || self.ramp_s < 0.0 {
            return Err(format!("ramp_s {} must be finite and >= 0", self.ramp_s));
        }
        if !self.hold_s.is_finite() || self.hold_s < 0.0 {
            return Err(format!("hold_s {} must be finite and >= 0", self.hold_s));
        }
        if !self.depth_db.is_finite() || self.depth_db < 0.0 {
            return Err(format!(
                "depth_db {} must be finite and >= 0",
                self.depth_db
            ));
        }
        Ok(())
    }

    /// Attenuation contributed by this event at time `t_s`, dB (≥ 0).
    pub fn attenuation_db(&self, t_s: f64) -> f64 {
        let dt = t_s - self.start_s;
        if dt < 0.0 {
            return 0.0;
        }
        if dt < self.ramp_s {
            return self.depth_db * dt / self.ramp_s;
        }
        let dt = dt - self.ramp_s;
        if dt < self.hold_s {
            return self.depth_db;
        }
        let dt = dt - self.hold_s;
        if dt < self.ramp_s {
            return self.depth_db * (1.0 - dt / self.ramp_s);
        }
        0.0
    }

    /// Time at which the event is fully over.
    pub fn end_s(&self) -> f64 {
        self.start_s + 2.0 * self.ramp_s + self.hold_s
    }
}

/// A set of blockage events over an experiment.
#[derive(Clone, Debug, Default)]
pub struct BlockageProcess {
    events: Vec<BlockageEvent>,
}

impl BlockageProcess {
    /// No blockage.
    pub fn none() -> Self {
        Self::default()
    }

    /// From explicit events. Panics if any event fails
    /// [`BlockageEvent::validate`].
    pub fn from_events(events: Vec<BlockageEvent>) -> Self {
        for (i, e) in events.iter().enumerate() {
            if let Err(msg) = e.validate() {
                panic!("invalid blockage event #{i}: {msg}");
            }
        }
        Self { events }
    }

    /// The paper's §6.2 protocol: one human blocker introduced midway
    /// through a 1-second experiment, blocking the given path for a duration
    /// drawn uniformly from 100–500 ms. Depth 25–35 dB: human bodies at
    /// mmWave block 25–40 dB (MacCartney et al.; Narayanan et al. report
    /// human blockage "always causes link outage" on single beams).
    pub fn paper_mobile_protocol(path_idx: usize, rng: &mut Rng64) -> Self {
        let hold = rng.uniform_in(0.1, 0.5);
        let depth = rng.uniform_in(25.0, 35.0);
        let start = rng.uniform_in(0.2, 0.5);
        Self::from_events(vec![BlockageEvent::nominal(path_idx, start, depth, hold)])
    }

    /// A walker crossing the whole link (Fig. 16): blocks the NLOS path
    /// first, then the LOS path, sequentially, each with the nominal depth
    /// for that path kind.
    pub fn walker_crossing(
        nlos_path_idx: usize,
        los_path_idx: usize,
        first_hit_s: f64,
        gap_s: f64,
        hold_s: f64,
    ) -> Self {
        Self::from_events(vec![
            BlockageEvent::nominal(nlos_path_idx, first_hit_s, 32.0, hold_s),
            BlockageEvent::nominal(los_path_idx, first_hit_s + gap_s, 32.0, hold_s),
        ])
    }

    /// Events list.
    pub fn events(&self) -> &[BlockageEvent] {
        &self.events
    }

    /// Adds an event. Panics if it fails [`BlockageEvent::validate`].
    // xtask-allow(hot-path-panic): an invalid blockage event is a scenario-configuration bug; failing loudly at setup is the contract
    pub fn push(&mut self, e: BlockageEvent) {
        if let Err(msg) = e.validate() {
            panic!("invalid blockage event: {msg}");
        }
        self.events.push(e);
    }

    /// Duplicates every event affecting `from_path` onto `to_path` as well —
    /// used when two rays share a physical corridor (e.g. the LOS and a
    /// far-wall bounce along almost the same line), so one human body
    /// blocks both.
    pub fn mirror_events(&mut self, from_path: usize, to_path: usize) {
        let cloned: Vec<BlockageEvent> = self
            .events
            .iter()
            .filter(|e| e.path_idx == from_path)
            .map(|e| BlockageEvent {
                path_idx: to_path,
                ..*e
            })
            .collect();
        self.events.extend(cloned);
    }

    /// Total attenuation on `path_idx` at time `t_s`, dB (events stack).
    pub fn attenuation_db(&self, path_idx: usize, t_s: f64) -> f64 {
        self.events
            .iter()
            .filter(|e| e.path_idx == path_idx)
            .map(|e| e.attenuation_db(t_s))
            .sum()
    }

    /// Applies the process to a path list at time `t_s` (sets each path's
    /// `blockage_db`).
    pub fn apply(&self, paths: &mut [Path], t_s: f64) {
        for (i, p) in paths.iter_mut().enumerate() {
            p.blockage_db = self.attenuation_db(i, t_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathKind;
    use mmwave_dsp::complex::c64;

    #[test]
    fn trapezoid_shape() {
        let e = BlockageEvent {
            path_idx: 0,
            start_s: 1.0,
            ramp_s: 0.1,
            depth_db: 20.0,
            hold_s: 0.3,
        };
        assert_eq!(e.attenuation_db(0.9), 0.0);
        assert!((e.attenuation_db(1.05) - 10.0).abs() < 1e-9); // mid-ramp
        assert_eq!(e.attenuation_db(1.2), 20.0); // hold
        assert!((e.attenuation_db(1.45) - 10.0).abs() < 1e-9); // mid-recovery
        assert_eq!(e.attenuation_db(2.0), 0.0);
        assert!((e.end_s() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn nominal_ramp_rate_matches_paper() {
        // 10 dB in 10 OFDM symbols (89.3 µs): a 25 dB event ramps in
        // 25/10 × 89.3 µs ≈ 223 µs.
        let e = BlockageEvent::nominal(0, 0.0, 25.0, 0.2);
        assert!((e.ramp_s - 223.25e-6).abs() < 1e-6);
        // Rate check: attenuation after 89.3 µs is 10 dB.
        assert!((e.attenuation_db(89.3e-6) - 10.0).abs() < 0.01);
    }

    #[test]
    fn process_sums_overlapping_events() {
        let p = BlockageProcess::from_events(vec![
            BlockageEvent {
                path_idx: 0,
                start_s: 0.0,
                ramp_s: 0.01,
                depth_db: 10.0,
                hold_s: 1.0,
            },
            BlockageEvent {
                path_idx: 0,
                start_s: 0.5,
                ramp_s: 0.01,
                depth_db: 5.0,
                hold_s: 1.0,
            },
        ]);
        assert!((p.attenuation_db(0, 0.6) - 15.0).abs() < 1e-9);
        assert!((p.attenuation_db(1, 0.6) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_ramps_sum_pointwise() {
        // Two events whose ramps overlap: attenuation is the pointwise sum
        // of the two trapezoids, not the max.
        let a = BlockageEvent {
            path_idx: 0,
            start_s: 0.0,
            ramp_s: 0.1,
            depth_db: 20.0,
            hold_s: 0.2,
        };
        let b = BlockageEvent {
            path_idx: 0,
            start_s: 0.05,
            ramp_s: 0.1,
            depth_db: 10.0,
            hold_s: 0.2,
        };
        let p = BlockageProcess::from_events(vec![a, b]);
        for t in [0.02, 0.08, 0.12, 0.25, 0.38] {
            let expect = a.attenuation_db(t) + b.attenuation_db(t);
            assert!(
                (p.attenuation_db(0, t) - expect).abs() < 1e-12,
                "t={t}: {} vs {expect}",
                p.attenuation_db(0, t)
            );
        }
        // Mid-overlap sanity: both ramps contribute partial depth.
        assert!(p.attenuation_db(0, 0.08) > 16.0);
    }

    #[test]
    fn mirrored_events_stack_independently_per_path() {
        let mut p = BlockageProcess::from_events(vec![BlockageEvent::nominal(0, 0.1, 30.0, 0.2)]);
        p.mirror_events(0, 3);
        assert_eq!(p.events().len(), 2);
        // Each path sees one copy at full depth, not a doubled stack.
        assert!((p.attenuation_db(0, 0.2) - 30.0).abs() < 1e-9);
        assert!((p.attenuation_db(3, 0.2) - 30.0).abs() < 1e-9);
        assert_eq!(p.attenuation_db(1, 0.2), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid blockage event")]
    fn nominal_rejects_negative_depth() {
        let _ = BlockageEvent::nominal(0, 0.1, -5.0, 0.2);
    }

    #[test]
    #[should_panic(expected = "invalid blockage event")]
    fn from_events_rejects_non_finite_times() {
        let _ = BlockageProcess::from_events(vec![BlockageEvent {
            path_idx: 0,
            start_s: f64::NAN,
            ramp_s: 0.01,
            depth_db: 10.0,
            hold_s: 0.1,
        }]);
    }

    #[test]
    #[should_panic(expected = "invalid blockage event")]
    fn push_rejects_negative_hold() {
        let mut p = BlockageProcess::none();
        p.push(BlockageEvent {
            path_idx: 0,
            start_s: 0.0,
            ramp_s: 0.01,
            depth_db: 10.0,
            hold_s: -0.1,
        });
    }

    #[test]
    fn zero_depth_event_is_valid_and_inert() {
        let e = BlockageEvent::nominal(0, 0.1, 0.0, 0.2);
        assert_eq!(e.ramp_s, 0.0);
        for t in [0.05, 0.1, 0.2, 0.4] {
            assert_eq!(e.attenuation_db(t), 0.0);
        }
    }

    #[test]
    fn apply_sets_blockage_on_paths() {
        let mut paths = vec![
            Path::new(0.0, 0.0, c64(1.0, 0.0), 20.0, PathKind::Los),
            Path::new(
                30.0,
                0.0,
                c64(0.5, 0.0),
                25.0,
                PathKind::Reflected { wall: 0 },
            ),
        ];
        let p = BlockageProcess::from_events(vec![BlockageEvent {
            path_idx: 1,
            start_s: 0.0,
            ramp_s: 0.001,
            depth_db: 30.0,
            hold_s: 1.0,
        }]);
        p.apply(&mut paths, 0.5);
        assert_eq!(paths[0].blockage_db, 0.0);
        assert_eq!(paths[1].blockage_db, 30.0);
    }

    #[test]
    fn walker_blocks_sequentially() {
        let p = BlockageProcess::walker_crossing(1, 0, 0.2, 0.3, 0.1);
        // At 0.25 s: NLOS blocked, LOS clear.
        assert!(p.attenuation_db(1, 0.28) > 10.0);
        assert!(p.attenuation_db(0, 0.28) == 0.0);
        // At 0.55 s: LOS blocked, NLOS recovering/clear.
        assert!(p.attenuation_db(0, 0.58) > 10.0);
    }

    #[test]
    fn paper_protocol_within_spec() {
        for seed in 0..50 {
            let mut rng = Rng64::seed(seed);
            let p = BlockageProcess::paper_mobile_protocol(0, &mut rng);
            let e = p.events()[0];
            assert!((0.1..=0.5).contains(&e.hold_s));
            assert!((25.0..=35.0).contains(&e.depth_db));
            assert!(e.end_s() < 1.1, "event must fit a ~1 s experiment");
        }
    }
}
