//! Declarative scenario specs: a small, deterministic, serializable
//! description of an experiment that round-trips to and from a one-line
//! plain-text form and constructs today's [`Scenario`] values exactly.
//!
//! A [`ScenarioSpec`] names a world ([`WorldSpec`]), a strategy, a seed, a
//! [`FaultSchedule`], an [`ImpairmentConfig`], and — optionally — a fleet
//! mix ([`FleetMixSpec`]: fleet size plus per-UE fault/impairment groups).
//! Its text form *is* the campaign cell id
//! (`world//strategy//seed//fault[//impairment]`), so a spec string pastes
//! straight into `replay --cell` and a spec-built cell is replayable from
//! its journal line like any registry cell.
//!
//! Worlds come in two classes:
//!
//! - **Curated** — the scenario library's builders
//!   ([`crate::scenario`]). A curated world whose parameters match the
//!   campaign registry serializes to the bare registry name
//!   (`static-walker`, `gnb-rotation`, …), so curated specs are
//!   bit-identical to — indeed indistinguishable from — today's registry
//!   cells. Parameter variants the registry does not name serialize to a
//!   versioned form (`spec:v1:gnb-rotation@8`).
//! - **Custom** — a [`CustomWorld`]: room, trajectory, blocker list,
//!   duration, bounce depth — the scenario fuzzer's generation surface
//!   (`spec:v1:custom;room=conference;traj=trans@0.9,7,180,3,0;…`).
//!
//! The grammar never uses `/` (it nests inside `//`-separated cell ids)
//! and is versioned: a binary that meets a `spec:v2:…` world it cannot
//! parse notes and skips the line ([`crate::campaign::journal_note`])
//! instead of erroring, like every other journal form it predates.

use crate::campaign::{CellKey, JournalEntry, STRATEGY_NAMES};
use crate::faults::FaultSchedule;
use crate::fleet::{fleet_scenario_id, FleetConfig};
use crate::impairments::ImpairmentConfig;
use crate::scenario::{self, Scenario, ScenarioError, DEFAULT_WARMUP_S};
use mmwave_channel::blockage::{BlockageEvent, BlockageProcess};
use mmwave_channel::channel::UeReceiver;
use mmwave_channel::dynamics::DynamicChannel;
use mmwave_channel::environment::Scene;
use mmwave_channel::geom2d::v2;
use mmwave_channel::linkbudget::LinkBudget;
use mmwave_channel::mobility::{Pose, Trajectory};
use mmwave_dsp::units::{FC_28GHZ, FC_60GHZ};
use mmwave_phy::chanest::ChannelSounder;

/// The gantry rate the bare `gnb-rotation` registry name denotes — a
/// [`WorldSpec::GnbRotation`] at this rate canonicalizes to that name.
pub const REGISTRY_GNB_RATE_DEG_S: f64 = 24.0;

/// The registry parameter for [`scenario::outdoor`]'s link distance.
pub const REGISTRY_OUTDOOR_DIST_M: f64 = 30.0;

// ---------------------------------------------------------------------------
// Worlds
// ---------------------------------------------------------------------------

/// Which scene a [`CustomWorld`] plays in. The room fixes the sounder
/// (indoor/outdoor front end) and, for the 60 GHz appendix scene, the link
/// budget — exactly as the curated builders do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoomKind {
    /// The paper's conference room at 28 GHz.
    Conference,
    /// The outdoor street canyon at 28 GHz (USRP front end).
    Outdoor,
    /// Appendix B's reflector scene at 28 GHz.
    Appendix28,
    /// Appendix B's reflector scene at 60 GHz (400 MHz budget).
    Appendix60,
}

impl RoomKind {
    fn id(self) -> &'static str {
        match self {
            RoomKind::Conference => "conference",
            RoomKind::Outdoor => "outdoor",
            RoomKind::Appendix28 => "appendix-28",
            RoomKind::Appendix60 => "appendix-60",
        }
    }

    fn parse(s: &str) -> Result<Self, ScenarioError> {
        Ok(match s {
            "conference" => RoomKind::Conference,
            "outdoor" => RoomKind::Outdoor,
            "appendix-28" => RoomKind::Appendix28,
            "appendix-60" => RoomKind::Appendix60,
            other => return Err(ScenarioError::spec(format!("unknown room {other:?}"))),
        })
    }
}

/// A custom world's UE trajectory.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrajSpec {
    /// A static UE at the given pose.
    Static {
        /// UE x, metres.
        x: f64,
        /// UE y, metres.
        y: f64,
        /// UE facing, degrees.
        facing_deg: f64,
    },
    /// Constant-velocity translation from the given pose.
    Translation {
        /// Start x, metres.
        x: f64,
        /// Start y, metres.
        y: f64,
        /// UE facing, degrees.
        facing_deg: f64,
        /// x velocity, m/s.
        vx: f64,
        /// y velocity, m/s.
        vy: f64,
    },
    /// A static UE (standard indoor pose) under gNB gantry rotation.
    Rotation {
        /// gNB rotation rate, degrees per second.
        rate_deg_s: f64,
    },
}

/// One blocker event in a custom world, in the paper's nominal trapezoid
/// shape (10 dB / 10 OFDM symbol ramps).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockerSpec {
    /// Index of the blocked path in the scene's reference path list.
    pub path: u32,
    /// Event start, seconds (authored clock: 0 = end of warm-up).
    pub start_s: f64,
    /// Fade depth at full blockage, dB.
    pub depth_db: f64,
    /// Fully-blocked hold, seconds.
    pub hold_s: f64,
}

/// A fully-declarative world the scenario library does not curate: the
/// scenario fuzzer's generation surface. Built scenes use the same rooms,
/// sounders, tick cadence, and warm-up as the curated builders.
#[derive(Clone, Debug, PartialEq)]
pub struct CustomWorld {
    /// The scene (and with it the sounder/budget).
    pub room: RoomKind,
    /// Image-source bounce depth (1 = single bounces, 2 adds wall pairs).
    pub max_bounces: u8,
    /// Measured duration, seconds.
    pub duration_s: f64,
    /// UE trajectory.
    pub traj: TrajSpec,
    /// Blocker events (multi-blocker crowds are lists).
    pub blockers: Vec<BlockerSpec>,
}

impl CustomWorld {
    /// Validates the world before any geometry is built.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if !self.duration_s.is_finite() || self.duration_s <= 0.0 || self.duration_s > 10.0 {
            return Err(ScenarioError::spec(format!(
                "custom duration {} outside (0, 10] s",
                self.duration_s
            )));
        }
        if !(1..=3).contains(&self.max_bounces) {
            return Err(ScenarioError::spec(format!(
                "custom bounce depth {} outside 1..=3",
                self.max_bounces
            )));
        }
        let finite = |v: f64| v.is_finite();
        let traj_ok = match self.traj {
            TrajSpec::Static { x, y, facing_deg } => [x, y, facing_deg].iter().all(|&v| finite(v)),
            TrajSpec::Translation {
                x,
                y,
                facing_deg,
                vx,
                vy,
            } => [x, y, facing_deg, vx, vy].iter().all(|&v| finite(v)),
            TrajSpec::Rotation { rate_deg_s } => finite(rate_deg_s),
        };
        if !traj_ok {
            return Err(ScenarioError::spec(
                "custom trajectory has a non-finite component".to_string(),
            ));
        }
        for b in &self.blockers {
            if b.path >= 16 {
                return Err(ScenarioError::spec(format!(
                    "blocker path index {} outside 0..16",
                    b.path
                )));
            }
            if !b.start_s.is_finite() || b.start_s < 0.0 {
                return Err(ScenarioError::spec(format!(
                    "blocker start {} must be finite and >= 0",
                    b.start_s
                )));
            }
            if !b.depth_db.is_finite() || !(0.0..=60.0).contains(&b.depth_db) {
                return Err(ScenarioError::spec(format!(
                    "blocker depth {} outside [0, 60] dB",
                    b.depth_db
                )));
            }
            if !b.hold_s.is_finite() || b.hold_s < 0.0 {
                return Err(ScenarioError::spec(format!(
                    "blocker hold {} must be finite and >= 0",
                    b.hold_s
                )));
            }
        }
        Ok(())
    }

    fn traj_id(&self) -> String {
        match self.traj {
            TrajSpec::Static { x, y, facing_deg } => format!("static@{x},{y},{facing_deg}"),
            TrajSpec::Translation {
                x,
                y,
                facing_deg,
                vx,
                vy,
            } => format!("trans@{x},{y},{facing_deg},{vx},{vy}"),
            TrajSpec::Rotation { rate_deg_s } => format!("rot@{rate_deg_s}"),
        }
    }

    fn id(&self) -> String {
        let mut parts = vec![
            format!("room={}", self.room.id()),
            format!("bounce={}", self.max_bounces),
            format!("dur={}", self.duration_s),
            format!("traj={}", self.traj_id()),
        ];
        if !self.blockers.is_empty() {
            let blk: Vec<String> = self
                .blockers
                .iter()
                .map(|b| format!("p{}~{}~{}~{}", b.path, b.start_s, b.depth_db, b.hold_s))
                .collect();
            parts.push(format!("blk={}", blk.join("+")));
        }
        format!("custom;{}", parts.join(";"))
    }

    fn parse(body: &str) -> Result<Self, ScenarioError> {
        fn f64_field(s: &str, what: &str) -> Result<f64, ScenarioError> {
            s.parse::<f64>()
                .map_err(|e| ScenarioError::spec(format!("bad {what} {s:?}: {e}")))
        }
        let mut room = None;
        let mut bounce = None;
        let mut dur = None;
        let mut traj = None;
        let mut blockers = Vec::new();
        for part in body.split(';') {
            if part.is_empty() {
                continue;
            }
            let (key, val) = part.split_once('=').ok_or_else(|| {
                ScenarioError::spec(format!("bad custom field {part:?} (want key=value)"))
            })?;
            match key {
                "room" => room = Some(RoomKind::parse(val)?),
                "bounce" => {
                    bounce = Some(
                        val.parse::<u8>()
                            .map_err(|e| ScenarioError::spec(format!("bad bounce {val:?}: {e}")))?,
                    )
                }
                "dur" => dur = Some(f64_field(val, "duration")?),
                "traj" => {
                    let (kind, args) = val.split_once('@').ok_or_else(|| {
                        ScenarioError::spec(format!("bad traj {val:?} (want kind@args)"))
                    })?;
                    let nums: Vec<f64> = args
                        .split(',')
                        .map(|a| f64_field(a, "traj component"))
                        .collect::<Result<_, _>>()?;
                    traj = Some(match (kind, nums.as_slice()) {
                        ("static", [x, y, f]) => TrajSpec::Static {
                            x: *x,
                            y: *y,
                            facing_deg: *f,
                        },
                        ("trans", [x, y, f, vx, vy]) => TrajSpec::Translation {
                            x: *x,
                            y: *y,
                            facing_deg: *f,
                            vx: *vx,
                            vy: *vy,
                        },
                        ("rot", [r]) => TrajSpec::Rotation { rate_deg_s: *r },
                        _ => {
                            return Err(ScenarioError::spec(format!(
                            "bad traj {val:?} (want static@x,y,f | trans@x,y,f,vx,vy | rot@rate)"
                        )))
                        }
                    });
                }
                "blk" => {
                    for ev in val.split('+') {
                        let body = ev.strip_prefix('p').ok_or_else(|| {
                            ScenarioError::spec(format!(
                                "bad blocker {ev:?} (want p<path>~start~depth~hold)"
                            ))
                        })?;
                        let fields: Vec<&str> = body.split('~').collect();
                        let [path, start, depth, hold] = fields.as_slice() else {
                            return Err(ScenarioError::spec(format!(
                                "bad blocker {ev:?} (want p<path>~start~depth~hold)"
                            )));
                        };
                        blockers.push(BlockerSpec {
                            path: path.parse::<u32>().map_err(|e| {
                                ScenarioError::spec(format!("bad blocker path {path:?}: {e}"))
                            })?,
                            start_s: f64_field(start, "blocker start")?,
                            depth_db: f64_field(depth, "blocker depth")?,
                            hold_s: f64_field(hold, "blocker hold")?,
                        });
                    }
                }
                other => {
                    return Err(ScenarioError::spec(format!(
                        "unknown custom field {other:?}"
                    )))
                }
            }
        }
        let w = CustomWorld {
            room: room.ok_or_else(|| ScenarioError::spec("custom world missing room"))?,
            max_bounces: bounce.unwrap_or(1),
            duration_s: dur.ok_or_else(|| ScenarioError::spec("custom world missing dur"))?,
            traj: traj.ok_or_else(|| ScenarioError::spec("custom world missing traj"))?,
            blockers,
        };
        w.validate()?;
        Ok(w)
    }

    /// Builds the [`Scenario`] — same tick cadence, warm-up, and receive
    /// model as every curated builder.
    pub fn build(&self) -> Result<Scenario, ScenarioError> {
        self.validate()?;
        let (mut scene, sounder) = match self.room {
            RoomKind::Conference => (
                Scene::conference_room(FC_28GHZ),
                ChannelSounder::paper_indoor(),
            ),
            RoomKind::Outdoor => (
                Scene::outdoor_street(FC_28GHZ),
                ChannelSounder::paper_outdoor(),
            ),
            RoomKind::Appendix28 => (Scene::appendix_b(FC_28GHZ), ChannelSounder::paper_indoor()),
            RoomKind::Appendix60 => {
                let mut s = ChannelSounder::paper_indoor();
                s.budget = LinkBudget::sixty_ghz_400mhz();
                (Scene::appendix_b(FC_60GHZ), s)
            }
        };
        scene.max_bounces = self.max_bounces;
        let mut rotation = 0.0;
        let traj = match self.traj {
            TrajSpec::Static { x, y, facing_deg } => Trajectory::Static {
                pose: Pose {
                    pos: v2(x, y),
                    facing_deg,
                },
            },
            TrajSpec::Translation {
                x,
                y,
                facing_deg,
                vx,
                vy,
            } => Trajectory::Translation {
                start: Pose {
                    pos: v2(x, y),
                    facing_deg,
                },
                velocity: v2(vx, vy),
            },
            TrajSpec::Rotation { rate_deg_s } => {
                rotation = rate_deg_s;
                Trajectory::Static {
                    pose: Pose {
                        pos: v2(0.9, 7.0),
                        facing_deg: 180.0,
                    },
                }
            }
        };
        let events: Vec<BlockageEvent> = self
            .blockers
            .iter()
            .map(|b| BlockageEvent::nominal(b.path as usize, b.start_s, b.depth_db, b.hold_s))
            .collect();
        let mut dynamic = DynamicChannel::new(scene, traj, BlockageProcess::from_events(events));
        if rotation != 0.0 {
            dynamic = dynamic.with_gnb_rotation(rotation);
        }
        Ok(Scenario {
            name: "custom",
            dynamic,
            sounder,
            rx: UeReceiver::Omni,
            duration_s: self.duration_s,
            tick_period_s: 10e-3,
            warmup_s: DEFAULT_WARMUP_S,
            fault: FaultSchedule::none(),
            impairment: ImpairmentConfig::none(),
        })
    }
}

/// A serializable world description. Curated variants delegate to the
/// scenario library's builders — their built [`Scenario`]s are the same
/// values, bit for bit — and [`WorldSpec::Custom`] builds a declarative
/// scene.
#[derive(Clone, Debug, PartialEq)]
pub enum WorldSpec {
    /// [`scenario::static_walker`].
    StaticWalker,
    /// [`scenario::mobile_blockage`] (seeded).
    MobileBlockage,
    /// [`scenario::translation_1s`].
    Translation1s,
    /// [`scenario::gnb_rotation`] at the given rate.
    GnbRotation {
        /// Gantry rate, degrees per second.
        rate_deg_s: f64,
    },
    /// [`scenario::rotation_blockage`] (seeded).
    RotationBlockage,
    /// [`scenario::mixed_mobility_blockage`] (seeded; alternates by seed
    /// parity).
    MixedMobility,
    /// [`scenario::outdoor`] at the given distance (seeded blocker).
    Outdoor {
        /// Link distance, metres.
        dist_m: f64,
    },
    /// [`scenario::natural_motion`] (seeded).
    NaturalMotion,
    /// [`scenario::appendix_b`].
    AppendixB {
        /// 60 GHz flavor (28 GHz otherwise).
        sixty_ghz: bool,
    },
    /// A fully-declarative world.
    Custom(CustomWorld),
}

impl WorldSpec {
    /// The campaign registry name this world is identical to, when its
    /// parameters match the registry's — the bare-name serialization that
    /// makes curated specs indistinguishable from registry cells.
    pub fn registry_name(&self) -> Option<&'static str> {
        Some(match self {
            WorldSpec::StaticWalker => "static-walker",
            WorldSpec::MobileBlockage => "mobile-blockage",
            WorldSpec::Translation1s => "translation-1s",
            WorldSpec::GnbRotation { rate_deg_s } if *rate_deg_s == REGISTRY_GNB_RATE_DEG_S => {
                "gnb-rotation"
            }
            WorldSpec::RotationBlockage => "rotation-blockage",
            WorldSpec::Outdoor { dist_m } if *dist_m == REGISTRY_OUTDOOR_DIST_M => "outdoor",
            WorldSpec::NaturalMotion => "natural-motion",
            WorldSpec::AppendixB { sixty_ghz: false } => "appendix-b-28ghz",
            WorldSpec::AppendixB { sixty_ghz: true } => "appendix-b-60ghz",
            _ => return None,
        })
    }

    /// Canonical one-line world id: the bare registry name when the world
    /// is registry-exact, otherwise a versioned `spec:v1:…` form. Never
    /// contains `/`, so it nests inside `//`-separated cell ids.
    pub fn id(&self) -> String {
        if let Some(name) = self.registry_name() {
            return name.to_string();
        }
        match self {
            WorldSpec::GnbRotation { rate_deg_s } => format!("spec:v1:gnb-rotation@{rate_deg_s}"),
            WorldSpec::Outdoor { dist_m } => format!("spec:v1:outdoor@{dist_m}"),
            WorldSpec::MixedMobility => "spec:v1:mixed-mobility".to_string(),
            WorldSpec::Custom(w) => format!("spec:v1:{}", w.id()),
            // Registry-exact variants returned above.
            _ => unreachable!("registry-exact world must serialize to its registry name"),
        }
    }

    /// Parses a world id — a bare registry name or a `spec:v1:…` form.
    /// Registry parameter variants parse back to the same variant the
    /// registry name denotes (`spec:v1:gnb-rotation@24` ≡ `gnb-rotation`),
    /// so `parse(id(w)).id() == id(w)` always holds.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        match s {
            "static-walker" => return Ok(WorldSpec::StaticWalker),
            "mobile-blockage" => return Ok(WorldSpec::MobileBlockage),
            "translation-1s" => return Ok(WorldSpec::Translation1s),
            "gnb-rotation" => {
                return Ok(WorldSpec::GnbRotation {
                    rate_deg_s: REGISTRY_GNB_RATE_DEG_S,
                })
            }
            "rotation-blockage" => return Ok(WorldSpec::RotationBlockage),
            "outdoor" => {
                return Ok(WorldSpec::Outdoor {
                    dist_m: REGISTRY_OUTDOOR_DIST_M,
                })
            }
            "natural-motion" => return Ok(WorldSpec::NaturalMotion),
            "appendix-b-28ghz" => return Ok(WorldSpec::AppendixB { sixty_ghz: false }),
            "appendix-b-60ghz" => return Ok(WorldSpec::AppendixB { sixty_ghz: true }),
            _ => {}
        }
        let rest = s.strip_prefix("spec:").ok_or_else(|| {
            ScenarioError::spec(format!(
                "unknown world {s:?} (not a registry name or spec form)"
            ))
        })?;
        let body = rest.strip_prefix("v1:").ok_or_else(|| {
            ScenarioError::spec(format!(
                "unsupported spec version in {s:?} (this binary understands spec:v1)"
            ))
        })?;
        fn f64_field(s: &str, what: &str) -> Result<f64, ScenarioError> {
            s.parse::<f64>()
                .map_err(|e| ScenarioError::spec(format!("bad {what} {s:?}: {e}")))
        }
        if body == "mixed-mobility" {
            return Ok(WorldSpec::MixedMobility);
        }
        if let Some(arg) = body.strip_prefix("gnb-rotation@") {
            return Ok(WorldSpec::GnbRotation {
                rate_deg_s: f64_field(arg, "rotation rate")?,
            });
        }
        if let Some(arg) = body.strip_prefix("outdoor@") {
            return Ok(WorldSpec::Outdoor {
                dist_m: f64_field(arg, "outdoor distance")?,
            });
        }
        if let Some(fields) =
            body.strip_prefix("custom;")
                .or(if body == "custom" { Some("") } else { None })
        {
            return Ok(WorldSpec::Custom(CustomWorld::parse(fields)?));
        }
        Err(ScenarioError::spec(format!("unknown spec world {body:?}")))
    }

    /// Checks that [`WorldSpec::build`] will succeed, without building:
    /// only a custom world can be invalid (the curated constructors
    /// cannot fail).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        match self {
            WorldSpec::Custom(w) => w.validate(),
            _ => Ok(()),
        }
    }

    /// Builds the [`Scenario`] this world denotes (what
    /// [`crate::campaign::build_scenario`] returns for its id): curated
    /// variants call the library constructor with the cell seed, custom
    /// variants build declaratively.
    pub fn build(&self, seed: u64) -> Result<Scenario, ScenarioError> {
        Ok(match self {
            WorldSpec::StaticWalker => scenario::static_walker(),
            WorldSpec::MobileBlockage => scenario::mobile_blockage(seed),
            WorldSpec::Translation1s => scenario::translation_1s(),
            WorldSpec::GnbRotation { rate_deg_s } => scenario::gnb_rotation(*rate_deg_s),
            WorldSpec::RotationBlockage => scenario::rotation_blockage(seed),
            WorldSpec::MixedMobility => scenario::mixed_mobility_blockage(seed),
            WorldSpec::Outdoor { dist_m } => scenario::outdoor(*dist_m, seed),
            WorldSpec::NaturalMotion => scenario::natural_motion(seed),
            WorldSpec::AppendixB { sixty_ghz } => scenario::appendix_b(*sixty_ghz),
            WorldSpec::Custom(w) => w.build()?,
        })
    }
}

/// Whether `name` is a bare registry name: one of the nine curated
/// worlds whose parameters the registry names ([`registry_names`]).
pub fn is_registry_name(name: &str) -> bool {
    WorldSpec::parse(name).ok().and_then(|w| w.registry_name()) == Some(name)
}

/// The registry names, in curated order.
pub fn registry_names() -> Vec<&'static str> {
    curated_worlds()
        .iter()
        .filter_map(WorldSpec::registry_name)
        .collect()
}

/// The eleven curated worlds: every scenario-library constructor (the nine
/// registry forms, the mixed-mobility alternator the registry does not
/// name, and one registry parameter variant — the paper's 8°/s tracking
/// sweep). The round-trip suite proves each produces a bit-identical run
/// fingerprint through the spec path and the direct constructor path.
pub fn curated_worlds() -> Vec<WorldSpec> {
    vec![
        WorldSpec::StaticWalker,
        WorldSpec::MobileBlockage,
        WorldSpec::Translation1s,
        WorldSpec::GnbRotation {
            rate_deg_s: REGISTRY_GNB_RATE_DEG_S,
        },
        WorldSpec::RotationBlockage,
        WorldSpec::MixedMobility,
        WorldSpec::Outdoor {
            dist_m: REGISTRY_OUTDOOR_DIST_M,
        },
        WorldSpec::NaturalMotion,
        WorldSpec::AppendixB { sixty_ghz: false },
        WorldSpec::AppendixB { sixty_ghz: true },
        WorldSpec::GnbRotation { rate_deg_s: 8.0 },
    ]
}

// ---------------------------------------------------------------------------
// Fleet mixes
// ---------------------------------------------------------------------------

/// One fleet mix group: the fault schedule and impairment configuration a
/// slice of the fleet runs under. UE `k` gets group `k % groups.len()`,
/// with its fault/impairment seeds offset by `k` so every member draws its
/// own realization ([`crate::fleet::ue_mix`]).
#[derive(Clone, Debug, PartialEq)]
pub struct MixGroup {
    /// Group fault schedule (seed is the group base seed).
    pub fault: FaultSchedule,
    /// Group impairment configuration (seed is the group base seed).
    pub impairment: ImpairmentConfig,
}

/// A per-UE fleet mix: fleet size plus heterogeneous fault/impairment
/// groups assigned round-robin across members. An empty group list is the
/// clean fleet.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetMixSpec {
    /// Fleet size.
    pub n_ues: u32,
    /// Mix groups; empty = every UE clean.
    pub groups: Vec<MixGroup>,
}

/// Serializes mix groups into the journal's `(fault, impairment)` field
/// pair: `mix:`-prefixed `|`-joined per-group specs, index-aligned across
/// the two fields. An empty group list canonicalizes to `("none", "none")`
/// — the exact fields today's clean fleets write.
pub fn mix_fields(groups: &[MixGroup]) -> (String, String) {
    if groups.is_empty() {
        return ("none".to_string(), "none".to_string());
    }
    let faults: Vec<String> = groups.iter().map(|g| g.fault.spec_string()).collect();
    let imps: Vec<String> = groups.iter().map(|g| g.impairment.spec_string()).collect();
    (
        format!("mix:{}", faults.join("|")),
        format!("mix:{}", imps.join("|")),
    )
}

/// Parses a journal `(fault, impairment)` field pair back into mix groups
/// — the inverse of [`mix_fields`]. Plain `"none"`/empty fields (clean
/// fleets, and every journal written before mixes existed) parse to the
/// empty group list.
pub fn parse_mix_fields(
    fault_field: &str,
    imp_field: &str,
) -> Result<Vec<MixGroup>, ScenarioError> {
    let f_plain = fault_field.is_empty() || fault_field == "none";
    let i_plain = imp_field.is_empty() || imp_field == "none";
    if f_plain && i_plain {
        return Ok(Vec::new());
    }
    let (Some(f_body), Some(i_body)) = (
        fault_field.strip_prefix("mix:"),
        imp_field.strip_prefix("mix:"),
    ) else {
        return Err(ScenarioError::spec(format!(
            "fleet mix fields must both be mix:-prefixed (or both none), got fault {fault_field:?} / impairment {imp_field:?}"
        )));
    };
    let faults: Vec<&str> = f_body.split('|').collect();
    let imps: Vec<&str> = i_body.split('|').collect();
    if faults.len() != imps.len() {
        return Err(ScenarioError::spec(format!(
            "fleet mix group counts differ: {} fault group(s) vs {} impairment group(s)",
            faults.len(),
            imps.len()
        )));
    }
    faults
        .iter()
        .zip(&imps)
        .map(|(f, i)| {
            Ok(MixGroup {
                fault: FaultSchedule::parse_spec(f).map_err(ScenarioError::fault)?,
                impairment: ImpairmentConfig::parse_spec(i).map_err(ScenarioError::impairment)?,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The full spec
// ---------------------------------------------------------------------------

/// A complete, serializable experiment description: world × strategy ×
/// seed × fault × impairment, with an optional per-UE fleet mix. The text
/// form is the campaign cell id, so specs, journal lines, and `replay
/// --cell` arguments are one vocabulary.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// The world.
    pub world: WorldSpec,
    /// Strategy registry name.
    pub strategy: String,
    /// Simulator seed (fleet seed for fleet specs).
    pub seed: u64,
    /// Fault schedule (ignored for fleet specs — the mix carries per-UE
    /// schedules instead).
    pub fault: FaultSchedule,
    /// Impairment configuration (ignored for fleet specs).
    pub impairment: ImpairmentConfig,
    /// `Some` for a fleet spec: run `n_ues` members of this world with the
    /// mix's per-UE fault/impairment groups.
    pub fleet: Option<FleetMixSpec>,
}

impl ScenarioSpec {
    /// A clean single-link spec of the given world.
    pub fn single(world: WorldSpec, strategy: &str, seed: u64) -> Self {
        Self {
            world,
            strategy: strategy.to_string(),
            seed,
            fault: FaultSchedule::none(),
            impairment: ImpairmentConfig::none(),
            fleet: None,
        }
    }

    /// Validates the spec end to end without building its world: the
    /// world is valid ([`WorldSpec::validate`]), the strategy is known, schedules validate, and fleet specs use a registry base
    /// world (the `fleet:{base}:{n}` journal form cannot carry a world id
    /// that itself contains `:`).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.world.validate()?;
        if !STRATEGY_NAMES.contains(&self.strategy.as_str()) {
            return Err(ScenarioError::spec(format!(
                "unknown strategy {:?} (known: {STRATEGY_NAMES:?})",
                self.strategy
            )));
        }
        self.fault.validate().map_err(ScenarioError::fault)?;
        self.impairment
            .validate()
            .map_err(ScenarioError::impairment)?;
        if let Some(fleet) = &self.fleet {
            if fleet.n_ues == 0 {
                return Err(ScenarioError::spec("fleet spec needs at least one UE"));
            }
            if self.world.registry_name().is_none() {
                return Err(ScenarioError::spec(format!(
                    "fleet specs need a registry base world, got {:?}",
                    self.world.id()
                )));
            }
            for g in &fleet.groups {
                g.fault.validate().map_err(ScenarioError::fault)?;
                g.impairment.validate().map_err(ScenarioError::impairment)?;
            }
        }
        Ok(())
    }

    /// The campaign cell key of a single-link spec, or the aggregate fleet
    /// cell key of a fleet spec.
    pub fn cell_key(&self) -> CellKey {
        match &self.fleet {
            None => CellKey {
                scenario: self.world.id(),
                strategy: self.strategy.clone(),
                seed: self.seed,
                fault_spec: self.fault.spec_string(),
                impairment_spec: self.impairment.spec_string(),
            },
            Some(fleet) => {
                let (fault_spec, impairment_spec) = mix_fields(&fleet.groups);
                CellKey {
                    scenario: fleet_scenario_id(
                        self.world.registry_name().unwrap_or("invalid"),
                        fleet.n_ues,
                    ),
                    strategy: self.strategy.clone(),
                    seed: self.seed,
                    fault_spec,
                    impairment_spec,
                }
            }
        }
    }

    /// Canonical one-line form: exactly [`CellKey::id`], so a spec string
    /// pastes into `replay --cell` unchanged.
    pub fn spec_string(&self) -> String {
        self.cell_key().id()
    }

    /// Parses a [`ScenarioSpec::spec_string`] (a cell id:
    /// `world//strategy//seed//fault[//impairment]`; fleet specs use the
    /// `fleet:{base}:{n}` scenario form with `mix:` schedule fields).
    pub fn parse_spec(s: &str) -> Result<Self, ScenarioError> {
        let parts: Vec<&str> = s.split("//").collect();
        let [scenario, strategy, seed, fault, rest @ ..] = parts.as_slice() else {
            return Err(ScenarioError::spec(format!(
                "bad spec {s:?} (want world//strategy//seed//fault[//impairment])"
            )));
        };
        let impairment = match rest {
            [] => "none",
            [imp] => imp,
            _ => {
                return Err(ScenarioError::spec(format!(
                    "bad spec {s:?}: too many // segments"
                )))
            }
        };
        let seed: u64 = seed
            .parse()
            .map_err(|e| ScenarioError::spec(format!("bad seed {seed:?}: {e}")))?;
        let spec = if let Some(fleet_ref) = crate::fleet::parse_fleet_scenario(scenario) {
            let crate::fleet::FleetScenarioRef::Aggregate { base, n_ues } = fleet_ref else {
                return Err(ScenarioError::spec(format!(
                    "per-UE fleet form {scenario:?} is a journal member line, not a spec"
                )));
            };
            ScenarioSpec {
                world: WorldSpec::parse(&base)?,
                strategy: (*strategy).to_string(),
                seed,
                fault: FaultSchedule::none(),
                impairment: ImpairmentConfig::none(),
                fleet: Some(FleetMixSpec {
                    n_ues,
                    groups: parse_mix_fields(fault, impairment)?,
                }),
            }
        } else {
            ScenarioSpec {
                world: WorldSpec::parse(scenario)?,
                strategy: (*strategy).to_string(),
                seed,
                fault: FaultSchedule::parse_spec(fault).map_err(ScenarioError::fault)?,
                impairment: ImpairmentConfig::parse_spec(impairment)
                    .map_err(ScenarioError::impairment)?,
                fleet: None,
            }
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Builds the single-link [`Scenario`] (world + fault + impairment).
    /// Errors on fleet specs — those build a [`FleetConfig`] instead.
    pub fn to_scenario(&self) -> Result<Scenario, ScenarioError> {
        if self.fleet.is_some() {
            return Err(ScenarioError::spec(
                "fleet spec cannot build a single-link scenario; use fleet_config()",
            ));
        }
        self.world
            .build(self.seed)?
            .with_faults(self.fault.clone())?
            .with_impairments(self.impairment.clone())
    }

    /// Builds the [`FleetConfig`] of a fleet spec (no journal attached).
    /// Errors on single-link specs.
    pub fn fleet_config(&self) -> Result<FleetConfig, ScenarioError> {
        let fleet = self.fleet.as_ref().ok_or_else(|| {
            ScenarioError::spec("single-link spec has no fleet; use to_scenario()")
        })?;
        self.validate()?;
        let base = self
            .world
            .registry_name()
            .expect("validate() checked registry base");
        let mut cfg = FleetConfig::new(base, &self.strategy, fleet.n_ues, self.seed);
        cfg.mix = fleet.groups.clone();
        Ok(cfg)
    }

    /// A journal-entry template for this spec: the line the campaign (or
    /// the fuzzer's counterexample writer) records for a completed run.
    /// `digest`/`reliability` come from the run; `message` is free-form
    /// annotation space (the fuzzer stamps the failing oracle here).
    pub fn journal_entry(&self, digest: u64, reliability: f64, message: &str) -> JournalEntry {
        let key = self.cell_key();
        JournalEntry {
            scenario: key.scenario,
            strategy: key.strategy,
            seed: key.seed,
            fault: key.fault_spec,
            status: "ok".to_string(),
            attempts: 1,
            digest,
            tick_budget: None,
            reliability,
            message: message.to_string(),
            features: crate::campaign::compiled_features(),
            impairment: key.impairment_spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_worlds_serialize_to_bare_names() {
        let names = registry_names();
        assert_eq!(names.len(), 9);
        for name in names {
            let w = WorldSpec::parse(name).expect("registry name parses");
            assert_eq!(w.id(), name, "registry world must round-trip to its name");
            assert!(w.registry_name() == Some(name));
            assert!(is_registry_name(name));
        }
        // Spec forms that canonicalize to a registry world are not
        // themselves registry names.
        assert!(!is_registry_name("spec:v1:gnb-rotation@24"));
        assert!(!is_registry_name("spec:v1:mixed-mobility"));
        assert!(!is_registry_name("no-such-scene"));
    }

    #[test]
    fn parameter_variants_use_versioned_forms() {
        let w = WorldSpec::GnbRotation { rate_deg_s: 8.0 };
        assert_eq!(w.id(), "spec:v1:gnb-rotation@8");
        assert_eq!(WorldSpec::parse(&w.id()).unwrap(), w);
        let w = WorldSpec::Outdoor { dist_m: 62.5 };
        assert_eq!(w.id(), "spec:v1:outdoor@62.5");
        assert_eq!(WorldSpec::parse(&w.id()).unwrap(), w);
        // A spec form spelling registry parameters canonicalizes back to
        // the bare name.
        let w = WorldSpec::parse("spec:v1:gnb-rotation@24").unwrap();
        assert_eq!(w.id(), "gnb-rotation");
    }

    #[test]
    fn custom_world_round_trips() {
        let w = WorldSpec::Custom(CustomWorld {
            room: RoomKind::Conference,
            max_bounces: 2,
            duration_s: 0.6,
            traj: TrajSpec::Translation {
                x: 0.9,
                y: 7.0,
                facing_deg: 180.0,
                vx: 3.5,
                vy: -0.25,
            },
            blockers: vec![
                BlockerSpec {
                    path: 0,
                    start_s: 0.2,
                    depth_db: 25.0,
                    hold_s: 0.1,
                },
                BlockerSpec {
                    path: 2,
                    start_s: 0.3,
                    depth_db: 18.5,
                    hold_s: 0.15,
                },
            ],
        });
        let id = w.id();
        assert!(id.starts_with("spec:v1:custom;"), "{id}");
        assert!(!id.contains('/'), "world ids must not contain '/': {id}");
        assert_eq!(WorldSpec::parse(&id).unwrap(), w);
    }

    #[test]
    fn unknown_versions_and_garbage_are_typed_spec_errors() {
        for bad in [
            "spec:v2:custom;room=conference",
            "spec:v1:no-such-world",
            "spec:v1:custom;room=atrium;dur=1;traj=rot@5",
            "not-a-world",
        ] {
            match WorldSpec::parse(bad) {
                Err(ScenarioError::InvalidSpec(_)) => {}
                other => panic!("{bad:?} must be InvalidSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn spec_string_is_a_cell_id_and_round_trips() {
        let mut fault = FaultSchedule::none();
        fault.seed = 9;
        fault.stale_prob = 0.25;
        let spec = ScenarioSpec {
            world: WorldSpec::GnbRotation { rate_deg_s: 8.0 },
            strategy: "mmreliable".to_string(),
            seed: 77,
            fault,
            impairment: ImpairmentConfig::none(),
            fleet: None,
        };
        let s = spec.spec_string();
        assert_eq!(
            s,
            "spec:v1:gnb-rotation@8//mmreliable//77//seed=9;stale=0.25"
        );
        assert_eq!(ScenarioSpec::parse_spec(&s).unwrap(), spec);
    }

    #[test]
    fn fleet_spec_round_trips_with_mix() {
        let mut g0_fault = FaultSchedule::none();
        g0_fault.seed = 3;
        g0_fault.stale_prob = 0.1;
        let spec = ScenarioSpec {
            world: WorldSpec::StaticWalker,
            strategy: "single-beam-reactive".to_string(),
            seed: 42,
            fault: FaultSchedule::none(),
            impairment: ImpairmentConfig::none(),
            fleet: Some(FleetMixSpec {
                n_ues: 4,
                groups: vec![
                    MixGroup {
                        fault: g0_fault,
                        impairment: ImpairmentConfig::none(),
                    },
                    MixGroup {
                        fault: FaultSchedule::none(),
                        impairment: ImpairmentConfig::mild(5),
                    },
                ],
            }),
        };
        let s = spec.spec_string();
        assert!(s.starts_with("fleet:static-walker:4//"), "{s}");
        assert_eq!(ScenarioSpec::parse_spec(&s).unwrap(), spec);
        // Clean fleets canonicalize to the exact fields today's fleets
        // journal.
        let clean = ScenarioSpec {
            fleet: Some(FleetMixSpec {
                n_ues: 2,
                groups: Vec::new(),
            }),
            ..spec
        };
        assert_eq!(
            clean.spec_string(),
            "fleet:static-walker:2//single-beam-reactive//42//none"
        );
        assert_eq!(
            ScenarioSpec::parse_spec(&clean.spec_string()).unwrap(),
            clean
        );
    }

    #[test]
    fn mix_fields_reject_mismatched_group_counts() {
        assert!(parse_mix_fields("mix:none|none", "mix:none").is_err());
        assert!(parse_mix_fields("mix:none", "none").is_err());
        assert!(parse_mix_fields("none", "none").unwrap().is_empty());
        assert!(parse_mix_fields("", "").unwrap().is_empty());
    }

    #[test]
    fn fleet_specs_need_registry_base_worlds() {
        let spec = ScenarioSpec {
            world: WorldSpec::GnbRotation { rate_deg_s: 8.0 },
            strategy: "mmreliable".to_string(),
            seed: 1,
            fault: FaultSchedule::none(),
            impairment: ImpairmentConfig::none(),
            fleet: Some(FleetMixSpec {
                n_ues: 2,
                groups: Vec::new(),
            }),
        };
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::InvalidSpec(_))
        ));
    }

    #[test]
    fn curated_corpus_is_eleven_and_all_build() {
        let worlds = curated_worlds();
        assert_eq!(worlds.len(), 11);
        for w in &worlds {
            let sc = w.build(3).expect("curated world builds");
            assert!(sc.duration_s > 0.0);
            // Every curated id parses back to the same world.
            assert_eq!(&WorldSpec::parse(&w.id()).unwrap(), w);
        }
    }

    #[test]
    fn world_validation_agrees_with_build() {
        for w in curated_worlds() {
            assert!(w.validate().is_ok() && w.build(3).is_ok(), "{}", w.id());
        }
        let bad = WorldSpec::Custom(CustomWorld {
            room: RoomKind::Conference,
            max_bounces: 1,
            duration_s: 20.0,
            traj: TrajSpec::Rotation { rate_deg_s: 5.0 },
            blockers: Vec::new(),
        });
        assert!(bad.build(3).is_err());
        let err = bad.validate().expect_err("20 s custom world is invalid");
        assert!(err.to_string().contains("duration"), "{err}");
        let spec = ScenarioSpec::single(bad, "single-beam-reactive", 3);
        assert!(spec.validate().is_err(), "a spec rejects its invalid world");
    }

    #[test]
    fn custom_build_matches_curated_geometry() {
        // A custom world spelling the translation-1s parameters produces
        // the same channel (name differs; geometry and blockage agree).
        let custom = CustomWorld {
            room: RoomKind::Conference,
            max_bounces: 1,
            duration_s: 1.0,
            traj: TrajSpec::Translation {
                x: 0.9,
                y: 7.0,
                facing_deg: 180.0,
                vx: 1.5,
                vy: 0.0,
            },
            blockers: Vec::new(),
        }
        .build()
        .unwrap();
        let curated = scenario::translation_1s();
        assert_eq!(
            custom.dynamic.reference_paths().len(),
            curated.dynamic.reference_paths().len()
        );
        assert_eq!(custom.duration_s, curated.duration_s);
    }
}
