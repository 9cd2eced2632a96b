//! The paper's experiment library as reproducible scenario builders.
//!
//! Every builder returns a [`Scenario`] — a fully-specified, seeded
//! experiment an evaluation binary can instantiate into a
//! [`crate::LinkSimulator`] and run against any strategy.

use crate::faults::FaultSchedule;
use crate::impairments::ImpairmentConfig;
use crate::simulator::{front_end_stack, FrontEndStack, LinkSimulator};
use mmwave_array::geometry::ArrayGeometry;
use mmwave_channel::blockage::{BlockageEvent, BlockageProcess};
use mmwave_channel::channel::UeReceiver;
use mmwave_channel::dynamics::DynamicChannel;
use mmwave_channel::environment::Scene;
use mmwave_channel::geom2d::v2;
use mmwave_channel::mobility::{Pose, Trajectory};
use mmwave_dsp::rng::Rng64;
use mmwave_dsp::units::{FC_28GHZ, FC_60GHZ};
use mmwave_phy::chanest::ChannelSounder;

/// The underlying validation message an invalid scenario component was
/// rejected with — the `source` of a [`ScenarioError`], so callers walking
/// the standard error chain see both the classification and the raw reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidationMessage(String);

impl ValidationMessage {
    /// The raw validation message.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ValidationMessage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ValidationMessage {}

/// Why a scenario could not be assembled. Typed so callers — the campaign
/// supervisor, and especially the scenario fuzzer — can tell a *rejected*
/// configuration (an invalid fault schedule or impairment config, which a
/// generator simply discards) from a malformed *spec* (a parse error in a
/// serialized scenario description, which is a bug in whatever produced
/// it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The fault schedule failed [`FaultSchedule::validate`].
    InvalidFault(ValidationMessage),
    /// The impairment config failed [`ImpairmentConfig::validate`] (or the
    /// geometry-dependent checks in `ImpairedFrontEnd::new`).
    InvalidImpairment(ValidationMessage),
    /// A serialized scenario spec failed to parse or to build.
    InvalidSpec(ValidationMessage),
}

impl ScenarioError {
    /// Constructs an [`ScenarioError::InvalidFault`] from a raw message.
    pub fn fault(msg: impl Into<String>) -> Self {
        ScenarioError::InvalidFault(ValidationMessage(msg.into()))
    }

    /// Constructs an [`ScenarioError::InvalidImpairment`] from a raw
    /// message.
    pub fn impairment(msg: impl Into<String>) -> Self {
        ScenarioError::InvalidImpairment(ValidationMessage(msg.into()))
    }

    /// Constructs an [`ScenarioError::InvalidSpec`] from a raw message.
    pub fn spec(msg: impl Into<String>) -> Self {
        ScenarioError::InvalidSpec(ValidationMessage(msg.into()))
    }

    /// The raw validation message, without the classification prefix.
    pub fn reason(&self) -> &str {
        match self {
            ScenarioError::InvalidFault(m)
            | ScenarioError::InvalidImpairment(m)
            | ScenarioError::InvalidSpec(m) => m.as_str(),
        }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::InvalidFault(m) => write!(f, "invalid fault schedule: {m}"),
            ScenarioError::InvalidImpairment(m) => write!(f, "invalid impairment config: {m}"),
            ScenarioError::InvalidSpec(m) => write!(f, "invalid scenario spec: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::InvalidFault(m)
            | ScenarioError::InvalidImpairment(m)
            | ScenarioError::InvalidSpec(m) => Some(m),
        }
    }
}

/// A fully-specified experiment.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display name.
    pub name: &'static str,
    /// The environment.
    pub dynamic: DynamicChannel,
    /// The radio front end.
    pub sounder: ChannelSounder,
    /// UE receive model.
    pub rx: UeReceiver,
    /// Measured experiment duration, seconds (excludes warm-up).
    pub duration_s: f64,
    /// Maintenance (CSI-RS) tick period, seconds.
    pub tick_period_s: f64,
    /// Warm-up window before measurement starts, seconds. Every scheme
    /// performs its initial beam training here, matching the paper's
    /// protocol ("At the beginning of each experiment, we perform beam
    /// training", §6); authored dynamics are delayed accordingly.
    pub warmup_s: f64,
    /// Front-end fault schedule for this experiment. Library builders
    /// produce the inert schedule; chaos campaigns attach a real one with
    /// [`Scenario::with_faults`], which validates it up front.
    pub fault: FaultSchedule,
    /// Hardware impairment configuration for this experiment. Library
    /// builders produce the inert configuration; impairment campaigns
    /// attach a real one with [`Scenario::with_impairments`], which
    /// validates it up front.
    pub impairment: ImpairmentConfig,
}

impl Scenario {
    /// Instantiates the simulator for this scenario with the given seed.
    /// The environment clock is delayed by the warm-up window.
    pub fn simulator(&self, seed: u64) -> LinkSimulator {
        LinkSimulator::new(
            self.dynamic.clone().with_start_delay(self.warmup_s),
            self.sounder.clone(),
            ArrayGeometry::paper_8x8(),
            self.rx.clone(),
            Rng64::seed(seed),
        )
    }

    /// Attaches a fault schedule, failing fast on an invalid one so a
    /// mis-specified campaign cell is rejected before any airtime is spent.
    pub fn with_faults(mut self, fault: FaultSchedule) -> Result<Self, ScenarioError> {
        fault.validate().map_err(ScenarioError::fault)?;
        self.fault = fault;
        Ok(self)
    }

    /// Attaches a hardware impairment configuration, failing fast on an
    /// invalid one — the impairment counterpart of
    /// [`Scenario::with_faults`].
    pub fn with_impairments(mut self, impairment: ImpairmentConfig) -> Result<Self, ScenarioError> {
        impairment.validate().map_err(ScenarioError::impairment)?;
        self.impairment = impairment;
        Ok(self)
    }

    /// Instantiates the seeded simulator wrapped in this scenario's
    /// fault and impairment layers ([`front_end_stack`]).
    pub fn front_end(&self, seed: u64) -> Result<FrontEndStack, ScenarioError> {
        front_end_stack(
            self.simulator(seed),
            self.fault.clone(),
            self.impairment.clone(),
        )
    }

    /// Total simulated time including warm-up.
    pub fn total_time_s(&self) -> f64 {
        self.warmup_s + self.duration_s
    }
}

/// Default warm-up: covers a 64-SSB exhaustive scan (32 ms) plus
/// establishment probes with margin.
pub const DEFAULT_WARMUP_S: f64 = 0.06;

/// Standard off-center indoor UE position (avoids the degenerate symmetric
/// geometry where both wall bounces share one delay).
fn indoor_ue() -> Pose {
    Pose {
        pos: v2(0.9, 7.0),
        facing_deg: 180.0,
    }
}

/// Fig. 16 / Fig. 18a: static indoor link; a walker crosses the whole link,
/// blocking the NLOS path then the LOS path (~0.3 s apart at walking pace).
pub fn static_walker() -> Scenario {
    // Reference path order for the off-center UE: 0 = LOS, 1 = left wall,
    // 2 = right wall, 3 = far wall.
    let mut blockage = BlockageProcess::walker_crossing(2, 0, 0.25, 0.3, 0.25);
    // The LOS and the far-wall bounce share the blocked corridor.
    blockage.mirror_events(0, 3);
    Scenario {
        name: "static-walker",
        dynamic: DynamicChannel::new(
            Scene::conference_room(FC_28GHZ),
            Trajectory::Static { pose: indoor_ue() },
            blockage,
        ),
        sounder: ChannelSounder::paper_indoor(),
        rx: UeReceiver::Omni,
        duration_s: 1.2,
        tick_period_s: 10e-3,
        warmup_s: DEFAULT_WARMUP_S,
        fault: FaultSchedule::none(),
        impairment: ImpairmentConfig::none(),
    }
}

/// Fig. 18b/c protocol: 1-s mobile run (1.5 m/s lateral translation) with a
/// human blocker on the LOS for a uniform 100–500 ms window, 20–30 dB deep.
/// Seeded per run.
pub fn mobile_blockage(seed: u64) -> Scenario {
    let mut rng = Rng64::seed(seed.wrapping_mul(0x9E37_79B9));
    let mut blockage = BlockageProcess::paper_mobile_protocol(0, &mut rng);
    // A body on the LOS corridor also blocks the collinear far-wall ray.
    blockage.mirror_events(0, 3);
    Scenario {
        name: "mobile-blockage",
        dynamic: DynamicChannel::new(
            Scene::conference_room(FC_28GHZ),
            Trajectory::Translation {
                start: indoor_ue(),
                velocity: v2(1.5, 0.0),
            },
            blockage,
        ),
        sounder: ChannelSounder::paper_indoor(),
        rx: UeReceiver::Omni,
        duration_s: 1.0,
        tick_period_s: 10e-3,
        warmup_s: DEFAULT_WARMUP_S,
        fault: FaultSchedule::none(),
        impairment: ImpairmentConfig::none(),
    }
}

/// Fig. 17c: pure 1-s translation at 1.5 m/s, no blockage — isolates the
/// tracking + constructive-combining ablations.
pub fn translation_1s() -> Scenario {
    Scenario {
        name: "translation-1s",
        dynamic: DynamicChannel::new(
            Scene::conference_room(FC_28GHZ),
            Trajectory::Translation {
                start: indoor_ue(),
                velocity: v2(1.5, 0.0),
            },
            BlockageProcess::none(),
        ),
        sounder: ChannelSounder::paper_indoor(),
        rx: UeReceiver::Omni,
        duration_s: 1.0,
        tick_period_s: 10e-3,
        warmup_s: DEFAULT_WARMUP_S,
        fault: FaultSchedule::none(),
        impairment: ImpairmentConfig::none(),
    }
}

/// Fig. 17a/b: gNB gantry rotation at `rate_deg_s` (paper sweeps 2–8°/s
/// equivalents and uses 24°/s for the VR case), static UE.
pub fn gnb_rotation(rate_deg_s: f64) -> Scenario {
    Scenario {
        name: "gnb-rotation",
        dynamic: DynamicChannel::new(
            Scene::conference_room(FC_28GHZ),
            Trajectory::Static { pose: indoor_ue() },
            BlockageProcess::none(),
        )
        .with_gnb_rotation(rate_deg_s),
        sounder: ChannelSounder::paper_indoor(),
        rx: UeReceiver::Omni,
        duration_s: 1.0,
        tick_period_s: 10e-3,
        warmup_s: DEFAULT_WARMUP_S,
        fault: FaultSchedule::none(),
        impairment: ImpairmentConfig::none(),
    }
}

/// Fig. 18b/c protocol, rotation flavor: gNB gantry rotation at 18°/s
/// (between the paper's tracking sweeps and its 24°/s VR rate) plus the
/// seeded mid-run blocker. Misalignment accrues continuously, which is
/// where reactive schemes bleed reliability.
pub fn rotation_blockage(seed: u64) -> Scenario {
    let mut rng = Rng64::seed(seed.wrapping_mul(0xC13F_A9A9));
    let mut blockage = BlockageProcess::paper_mobile_protocol(0, &mut rng);
    blockage.mirror_events(0, 3);
    Scenario {
        name: "rotation-blockage",
        dynamic: DynamicChannel::new(
            Scene::conference_room(FC_28GHZ),
            Trajectory::Static { pose: indoor_ue() },
            blockage,
        )
        .with_gnb_rotation(18.0),
        sounder: ChannelSounder::paper_indoor(),
        rx: UeReceiver::Omni,
        duration_s: 1.0,
        tick_period_s: 10e-3,
        warmup_s: DEFAULT_WARMUP_S,
        fault: FaultSchedule::none(),
        impairment: ImpairmentConfig::none(),
    }
}

/// The paper's Fig. 18b/c mix: alternating translation and rotation runs.
pub fn mixed_mobility_blockage(seed: u64) -> Scenario {
    if seed.is_multiple_of(2) {
        mobile_blockage(seed)
    } else {
        rotation_blockage(seed)
    }
}

/// Outdoor long link (10–80 m) beside the glass-walled building, with a
/// mid-run LOS blocker. The 100 MHz USRP front end, per §5.2.
pub fn outdoor(dist_m: f64, seed: u64) -> Scenario {
    let mut rng = Rng64::seed(seed.wrapping_mul(0xA24B_AED4));
    let blockage = BlockageProcess::paper_mobile_protocol(0, &mut rng);
    Scenario {
        name: "outdoor",
        dynamic: DynamicChannel::new(
            Scene::outdoor_street(FC_28GHZ),
            Trajectory::Static {
                pose: Pose {
                    pos: v2(0.0, dist_m),
                    facing_deg: 180.0,
                },
            },
            blockage,
        ),
        sounder: ChannelSounder::paper_outdoor(),
        rx: UeReceiver::Omni,
        duration_s: 1.0,
        tick_period_s: 10e-3,
        warmup_s: DEFAULT_WARMUP_S,
        fault: FaultSchedule::none(),
        impairment: ImpairmentConfig::none(),
    }
}

/// "Natural motion" end-to-end run (§6: "We also experiment with natural
/// motion"): a waypoint walk through the conference room — sidestep,
/// pause, turn, walk back — with a mid-run blocker, in a richer channel
/// that includes wall-pair double bounces.
pub fn natural_motion(seed: u64) -> Scenario {
    use mmwave_channel::geom2d::v2 as p2;
    let mut rng = Rng64::seed(seed.wrapping_mul(0xD1B5_4A32));
    let mut blockage = BlockageProcess::paper_mobile_protocol(0, &mut rng);
    blockage.mirror_events(0, 3);
    let mut scene = Scene::conference_room(FC_28GHZ);
    scene.max_bounces = 2;
    let knots = vec![
        (
            0.0,
            Pose {
                pos: p2(0.6, 6.5),
                facing_deg: 180.0,
            },
        ),
        (
            0.4,
            Pose {
                pos: p2(1.2, 6.8),
                facing_deg: 184.0,
            },
        ),
        (
            0.7,
            Pose {
                pos: p2(1.2, 6.8),
                facing_deg: 176.0,
            },
        ), // pause + turn
        (
            1.0,
            Pose {
                pos: p2(0.7, 7.4),
                facing_deg: 180.0,
            },
        ),
        (
            1.5,
            Pose {
                pos: p2(-0.2, 7.2),
                facing_deg: 186.0,
            },
        ),
    ];
    Scenario {
        name: "natural-motion",
        dynamic: DynamicChannel::new(scene, Trajectory::Waypoints { knots }, blockage),
        sounder: ChannelSounder::paper_indoor(),
        rx: UeReceiver::Omni,
        duration_s: 1.5,
        tick_period_s: 10e-3,
        warmup_s: DEFAULT_WARMUP_S,
        fault: FaultSchedule::none(),
        impairment: ImpairmentConfig::none(),
    }
}

/// Appendix B: 10 m link with a concrete reflector at 60°, static UE with
/// ~10% blockage duty cycle on the LOS, at 28 or 60 GHz.
pub fn appendix_b(sixty_ghz: bool) -> Scenario {
    let fc = if sixty_ghz { FC_60GHZ } else { FC_28GHZ };
    let mut sounder = ChannelSounder::paper_indoor();
    if sixty_ghz {
        sounder.budget = mmwave_channel::linkbudget::LinkBudget::sixty_ghz_400mhz();
    }
    // 10% blockage: one 100 ms full block per 1 s run.
    let blockage = BlockageProcess::from_events(vec![BlockageEvent::nominal(0, 0.45, 25.0, 0.1)]);
    Scenario {
        name: if sixty_ghz {
            "appendix-b-60ghz"
        } else {
            "appendix-b-28ghz"
        },
        dynamic: DynamicChannel::new(
            Scene::appendix_b(fc),
            Trajectory::Static {
                pose: Pose {
                    pos: v2(0.0, 10.0),
                    facing_deg: 180.0,
                },
            },
            blockage,
        ),
        sounder,
        rx: UeReceiver::Omni,
        duration_s: 1.0,
        tick_period_s: 10e-3,
        warmup_s: DEFAULT_WARMUP_S,
        fault: FaultSchedule::none(),
        impairment: ImpairmentConfig::none(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_produce_paths() {
        for sc in [
            static_walker(),
            mobile_blockage(1),
            translation_1s(),
            gnb_rotation(8.0),
            outdoor(30.0, 1),
            appendix_b(false),
            appendix_b(true),
        ] {
            let paths = sc.dynamic.reference_paths();
            assert!(!paths.is_empty(), "{}: no paths at t=0", sc.name);
            assert!(sc.duration_s > 0.0);
        }
    }

    #[test]
    fn natural_motion_runs_and_has_rich_channel() {
        let sc = natural_motion(1);
        let paths = sc.dynamic.reference_paths();
        assert!(
            paths.len() > 4,
            "double bounces expected, got {}",
            paths.len()
        );
        // Pose actually moves and turns over the run.
        let a = sc.dynamic.pose_at(sc.warmup_s + 0.4);
        let b = sc.dynamic.pose_at(sc.warmup_s + 0.7);
        assert!(sc.dynamic.pose_at(sc.warmup_s).pos.dist(b.pos) > 0.3);
        assert!((a.facing_deg - b.facing_deg).abs() > 4.0, "turn expected");
    }

    #[test]
    fn walker_blocks_nlos_then_los() {
        let sc = static_walker();
        // During the first hit (t ≈ 0.3) the right-wall path is blocked.
        let mid_first = sc.dynamic.channel_at(0.35);
        assert!(mid_first.paths[2].blockage_db > 10.0);
        assert!(mid_first.paths[0].blockage_db < 1.0);
        // Later the LOS is blocked.
        let mid_second = sc.dynamic.channel_at(0.65);
        assert!(mid_second.paths[0].blockage_db > 10.0);
    }

    #[test]
    fn mobile_blockage_is_seeded() {
        let a = mobile_blockage(3);
        let b = mobile_blockage(3);
        let c = mobile_blockage(4);
        assert_eq!(a.dynamic.blockage.events(), b.dynamic.blockage.events());
        assert_ne!(a.dynamic.blockage.events(), c.dynamic.blockage.events());
    }

    #[test]
    fn rotation_shifts_aods() {
        let sc = gnb_rotation(24.0);
        let a0 = sc.dynamic.true_aod_deg(0, 0.0).unwrap();
        let a1 = sc.dynamic.true_aod_deg(0, 0.5).unwrap();
        assert!((a0 - a1 - 12.0).abs() < 1e-9, "Δ {}", a0 - a1);
    }

    #[test]
    fn sixty_ghz_scene_uses_60ghz_budget() {
        let sc = appendix_b(true);
        assert!((sc.dynamic.scene.fc_hz - FC_60GHZ).abs() < 1.0);
        assert!((sc.sounder.budget.fc_hz - FC_60GHZ).abs() < 1.0);
    }

    #[test]
    fn simulator_instantiation() {
        let sc = translation_1s();
        let sim = sc.simulator(9);
        assert_eq!(sim.now_s(), 0.0);
    }
}
