//! Property-based scenario fuzzing: random-but-valid [`ScenarioSpec`]s
//! run against invariant oracles, with deterministic greedy shrinking and
//! replayable counterexamples.
//!
//! The generator ([`arb_spec`]) produces specs that are valid by
//! construction but deliberately wider than the curated library:
//! multi-blocker crowds, vehicular speeds beyond the paper's 1.5 m/s,
//! heterogeneous per-UE fault/impairment fleet mixes. Every generated
//! spec runs through the same [`crate::campaign::replay_cell`] /
//! [`crate::fleet::run_fleet`] machinery as a journaled cell, and each
//! completed run is held to the oracles:
//!
//! | oracle | invariant |
//! |---|---|
//! | `lifecycle-wedge` | the transition tape is legal, chained, time-ordered, and ends in a state with a legal exit ([`mmreliable::linkstate::check_transition_tape`]) |
//! | `outage-recovery` | every sub-outage-SNR stretch longer than the spec's recovery horizon shows recovery activity (probing or a lifecycle transition) within that horizon |
//! | `validation` / `panic` / `timeout` | the run completes and [`crate::metrics::RunResult::validate`] passes (classified by [`crate::campaign::replay_cell`]) |
//! | `determinism` | running the same spec twice produces bit-identical digests |
//! | `clean-identity` | a zero-fault/zero-impairment spec is bit-identical to the clean constructor-built run |
//! | `fleet-invariance` | a fleet spec's digest is identical under (1 thread, 1 shard) and (2 threads, 3 shards) |
//!
//! A failing spec is shrunk by [`shrink_spec`] — a deterministic greedy
//! loop over structural simplifications (drop the fleet, drop blockers,
//! still the trajectory, halve the duration, strip fault/impairment
//! components), accepting a candidate only when the *same* oracle still
//! fails — and the minimal spec is written as a replayable journal line:
//! `replay --cell` reproduces the counterexample bit-identically.
//!
//! [`OracleOptions::inject_wedge`] is a test-only deliberately-broken
//! oracle (it claims every completed single-link run ended wedged) used
//! by the acceptance suite to prove the find → shrink → replay loop end
//! to end.

use crate::campaign::{replay_cell, FailureKind, JournalEntry, STRATEGY_NAMES};
use crate::faults::{FaultSchedule, ProbeLossWindow, SnrGlitch};
use crate::fleet::run_fleet;
use crate::impairments::ImpairmentConfig;
use crate::metrics::RunResult;
use crate::simulator::SimFrontEnd;
use crate::spec::{
    curated_worlds, BlockerSpec, CustomWorld, FleetMixSpec, MixGroup, RoomKind, ScenarioSpec,
    TrajSpec, WorldSpec,
};
use mmreliable::linkstate::{check_transition_tape, has_legal_exit};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

/// The simulator's outage SNR threshold ([`crate::LinkSimulator`] default)
/// — the level below which the `outage-recovery` oracle demands activity.
pub const OUTAGE_SNR_DB: f64 = 6.0;

/// Base recovery horizon for the `outage-recovery` oracle, seconds. The
/// per-spec horizon adds the total scheduled dark/probe-loss time, so a
/// spec that forbids probing for 200 ms is not blamed for staying down
/// through it.
pub const RECOVERY_HORIZON_S: f64 = 0.25;

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

/// A [`Strategy`] over full scenario specs. Valid by construction: every
/// generated spec passes [`ScenarioSpec::validate`].
pub struct SpecStrategy;

impl Strategy for SpecStrategy {
    type Value = ScenarioSpec;
    fn new_value(&self, rng: &mut TestRng) -> ScenarioSpec {
        gen_spec(rng)
    }
}

/// Random-but-valid specs: curated and custom worlds, faulted and
/// impaired, with roughly one in six cases a multi-UE fleet mix.
pub fn arb_spec() -> SpecStrategy {
    SpecStrategy
}

fn gen_range(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.unit_f64()
}

fn gen_sign(rng: &mut TestRng) -> f64 {
    if rng.below(2) == 0 {
        1.0
    } else {
        -1.0
    }
}

/// Fleet base worlds: cheap registry scenarios (fleet oracles run every
/// member at least twice).
const FLEET_BASES: [&str; 3] = ["static-walker", "translation-1s", "mobile-blockage"];

fn gen_traj(rng: &mut TestRng, room: RoomKind, duration_s: f64) -> TrajSpec {
    // Keep the UE inside a loose per-room box over warm-up + duration by
    // flipping a velocity component whose endpoint would escape.
    let span_s = duration_s + 0.1;
    match room {
        RoomKind::Conference => match rng.below(3) {
            0 => TrajSpec::Static {
                x: gen_range(rng, -0.2, 1.2),
                y: gen_range(rng, 6.2, 7.6),
                facing_deg: gen_range(rng, 170.0, 190.0),
            },
            1 => {
                let x = gen_range(rng, -0.2, 0.9);
                let y = gen_range(rng, 6.4, 7.4);
                // Up to 2 m/s: beyond the paper's 1.5 m/s walking pace.
                let mut vx = gen_sign(rng) * gen_range(rng, 0.5, 2.0);
                let mut vy = gen_range(rng, -0.3, 0.3);
                if !(-0.5..=2.5).contains(&(x + vx * span_s)) {
                    vx = -vx;
                }
                if !(5.8..=7.8).contains(&(y + vy * span_s)) {
                    vy = -vy;
                }
                TrajSpec::Translation {
                    x,
                    y,
                    facing_deg: gen_range(rng, 170.0, 190.0),
                    vx,
                    vy,
                }
            }
            _ => TrajSpec::Rotation {
                rate_deg_s: gen_range(rng, 2.0, 45.0),
            },
        },
        RoomKind::Outdoor => match rng.below(3) {
            0 => TrajSpec::Static {
                x: gen_range(rng, -1.0, 1.0),
                y: gen_range(rng, 10.0, 60.0),
                facing_deg: gen_range(rng, 170.0, 190.0),
            },
            1 => {
                let x = gen_range(rng, -1.0, 1.0);
                let y = gen_range(rng, 20.0, 45.0);
                let mut vx = gen_range(rng, -1.0, 1.0);
                // Vehicular: up to 8 m/s along the street.
                let mut vy = gen_sign(rng) * gen_range(rng, 1.0, 8.0);
                if !(-2.0..=2.0).contains(&(x + vx * span_s)) {
                    vx = -vx;
                }
                if !(8.0..=60.0).contains(&(y + vy * span_s)) {
                    vy = -vy;
                }
                TrajSpec::Translation {
                    x,
                    y,
                    facing_deg: gen_range(rng, 170.0, 190.0),
                    vx,
                    vy,
                }
            }
            _ => TrajSpec::Rotation {
                rate_deg_s: gen_range(rng, 2.0, 45.0),
            },
        },
        RoomKind::Appendix28 | RoomKind::Appendix60 => match rng.below(2) {
            0 => TrajSpec::Static {
                x: gen_range(rng, -0.5, 0.5),
                y: gen_range(rng, 8.0, 12.0),
                facing_deg: gen_range(rng, 175.0, 185.0),
            },
            _ => TrajSpec::Rotation {
                rate_deg_s: gen_range(rng, 2.0, 30.0),
            },
        },
    }
}

fn gen_custom_world(rng: &mut TestRng) -> CustomWorld {
    let room = match rng.below(4) {
        0 => RoomKind::Conference,
        1 => RoomKind::Outdoor,
        2 => RoomKind::Appendix28,
        _ => RoomKind::Appendix60,
    };
    let duration_s = gen_range(rng, 0.3, 0.9);
    let traj = gen_traj(rng, room, duration_s);
    // Multi-blocker crowds: up to five overlapping trapezoid fades.
    let n_blockers = rng.below(6) as usize;
    let blockers = (0..n_blockers)
        .map(|_| BlockerSpec {
            path: rng.below(6) as u32,
            start_s: gen_range(rng, 0.0, duration_s * 0.8),
            depth_db: gen_range(rng, 10.0, 35.0),
            hold_s: gen_range(rng, 0.05, 0.35),
        })
        .collect();
    CustomWorld {
        room,
        max_bounces: 1 + rng.below(2) as u8,
        duration_s,
        traj,
        blockers,
    }
}

fn gen_world(rng: &mut TestRng) -> WorldSpec {
    if rng.below(4) == 0 {
        let worlds = curated_worlds();
        worlds[rng.below(worlds.len() as u64) as usize].clone()
    } else {
        WorldSpec::Custom(gen_custom_world(rng))
    }
}

fn gen_fault(rng: &mut TestRng) -> FaultSchedule {
    let mut f = FaultSchedule::none();
    f.seed = rng.below(1 << 32);
    if rng.below(3) == 0 {
        let start = gen_range(rng, 0.0, 0.5);
        f.probe_loss.push(ProbeLossWindow {
            start_s: start,
            end_s: start + gen_range(rng, 0.05, 0.3),
            loss_prob: gen_range(rng, 0.2, 0.9),
        });
    }
    if rng.below(3) == 0 {
        f.stale_prob = gen_range(rng, 0.05, 0.4);
    }
    if rng.below(3) == 0 {
        f.snr_glitch = Some(SnrGlitch {
            prob: gen_range(rng, 0.05, 0.3),
            mag_db: gen_range(rng, 3.0, 12.0),
        });
    }
    if rng.below(3) == 0 {
        let n = 1 + rng.below(3) as usize;
        let mut failed: Vec<usize> = (0..n).map(|_| rng.below(16) as usize).collect();
        failed.sort_unstable();
        failed.dedup();
        f.failed_elements = failed;
    }
    if rng.below(3) == 0 {
        f.gain_drift_db = gen_range(rng, 0.5, 3.0);
        f.gain_drift_period_s = gen_range(rng, 0.2, 1.0);
    }
    if rng.below(3) == 0 {
        let start = gen_range(rng, 0.1, 0.6);
        f.unavailable
            .push((start, start + gen_range(rng, 0.05, 0.25)));
    }
    // A schedule whose every component rolled inert canonicalizes to
    // `none`; return the canonical value so spec strings round-trip.
    if f.is_inert() {
        return FaultSchedule::none();
    }
    f
}

fn gen_impairment(rng: &mut TestRng) -> ImpairmentConfig {
    let seed = rng.below(1 << 32);
    match rng.below(4) {
        0 => ImpairmentConfig::none(),
        1 => ImpairmentConfig::mild(seed),
        2 => ImpairmentConfig::moderate(seed),
        _ => ImpairmentConfig::severe(seed),
    }
}

fn gen_spec(rng: &mut TestRng) -> ScenarioSpec {
    let strategy = STRATEGY_NAMES[rng.below(STRATEGY_NAMES.len() as u64) as usize].to_string();
    let seed = rng.below(1_000_000);
    if rng.below(6) == 0 {
        let base = FLEET_BASES[rng.below(FLEET_BASES.len() as u64) as usize];
        let n_groups = rng.below(3) as usize;
        let groups = (0..n_groups)
            .map(|_| MixGroup {
                fault: gen_fault(rng),
                impairment: gen_impairment(rng),
            })
            .collect();
        return ScenarioSpec {
            world: WorldSpec::parse(base).expect("fleet bases are registry names"),
            strategy,
            seed,
            fault: FaultSchedule::none(),
            impairment: ImpairmentConfig::none(),
            fleet: Some(FleetMixSpec {
                n_ues: 2 + rng.below(3) as u32,
                groups,
            }),
        };
    }
    let fault = if rng.below(2) == 0 {
        FaultSchedule::none()
    } else {
        gen_fault(rng)
    };
    ScenarioSpec {
        world: gen_world(rng),
        strategy,
        seed,
        fault,
        impairment: gen_impairment(rng),
        fleet: None,
    }
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Which oracles [`check_spec`] applies.
#[derive(Clone, Copy, Debug)]
pub struct OracleOptions {
    /// Test-only deliberately-broken oracle: treats every completed
    /// single-link run as wedged. Exists so the acceptance suite can
    /// prove a planted bug is found, shrunk, and replayed; never enabled
    /// in real fuzzing.
    pub inject_wedge: bool,
    /// Run fleet specs a second time under a different thread/shard split
    /// and demand digest equality. On by default; costs a second full
    /// fleet execution per fleet spec.
    pub fleet_invariance: bool,
}

impl Default for OracleOptions {
    fn default() -> Self {
        Self {
            inject_wedge: false,
            fleet_invariance: true,
        }
    }
}

/// One oracle violation: which invariant broke, on what evidence, and the
/// journal fields (`status`, `digest`, `reliability`) the counterexample
/// line should carry so its replay reproduces the same outcome.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Oracle name (`lifecycle-wedge`, `outage-recovery`, `determinism`,
    /// `clean-identity`, `fleet-invariance`, or a
    /// [`FailureKind::as_str`] class).
    pub oracle: &'static str,
    /// Human-readable evidence.
    pub detail: String,
    /// Journal status for the counterexample line (`"ok"` when the run
    /// completed and an invariant failed; the failure class otherwise).
    pub status: String,
    /// Digest of the (first) run, `0` when the run never completed.
    pub digest: u64,
    /// Reliability of the (first) run, `0` when the run never completed.
    pub reliability: f64,
}

fn run_failure(f: crate::campaign::CampaignFailure) -> FuzzFailure {
    let oracle = match f.kind {
        FailureKind::Panic => "panic",
        FailureKind::Timeout => "timeout",
        FailureKind::Validation => "validation",
    };
    FuzzFailure {
        oracle,
        detail: f.message,
        status: f.kind.as_str().to_string(),
        digest: 0,
        reliability: 0.0,
    }
}

/// The `outage-recovery` horizon for one spec: the base horizon plus all
/// scheduled dark/probe-loss time (the controller cannot recover while its
/// probes are scheduled to be erased).
pub fn recovery_horizon_s(spec: &ScenarioSpec) -> f64 {
    let mut h = RECOVERY_HORIZON_S;
    for w in &spec.fault.probe_loss {
        h += w.end_s - w.start_s;
    }
    for (a, b) in &spec.fault.unavailable {
        h += b - a;
    }
    h
}

/// Strategies the `outage-recovery` oracle holds to account: the paper's
/// scheme and the reactive baseline both actively re-train after an
/// outage. Periodic/static baselines legitimately sit through one.
const RECOVERING_STRATEGIES: [&str; 2] = ["mmreliable", "single-beam-reactive"];

fn check_lifecycle(result: &RunResult, inject_wedge: bool) -> Result<(), String> {
    let transitions: Vec<_> = result.transitions().collect();
    if inject_wedge {
        // The planted bug: claim every completed run ended wedged. Fires
        // deterministically on the first single-link case so the
        // acceptance suite can watch it get caught, shrunk, and replayed.
        return Err(match transitions.last() {
            Some(tr) => format!(
                "injected wedge oracle: claiming {:?} at t={:.3} has no legal exit",
                tr.to.kind(),
                tr.t_s
            ),
            None => "injected wedge oracle: claiming the quiescent run is wedged".to_string(),
        });
    }
    check_transition_tape(transitions.iter().copied())?;
    if let Some(last) = transitions.last() {
        if !has_legal_exit(last.to.kind()) {
            return Err(format!("run ended wedged in {:?}", last.to.kind()));
        }
    }
    Ok(())
}

fn check_outage_recovery(spec: &ScenarioSpec, result: &RunResult) -> Result<(), String> {
    if !RECOVERING_STRATEGIES.contains(&spec.strategy.as_str()) {
        return Ok(());
    }
    let horizon = recovery_horizon_s(spec);
    let transition_times: Vec<f64> = result.transitions().map(|tr| tr.t_s).collect();
    let mut outage_start: Option<f64> = None;
    let mut activity_since: bool = false;
    for s in &result.samples {
        if s.probing {
            activity_since = true;
            continue;
        }
        if !s.snr_db.is_finite() || s.snr_db >= OUTAGE_SNR_DB {
            outage_start = None;
            continue;
        }
        let start = *outage_start.get_or_insert_with(|| {
            activity_since = false;
            s.t_s
        });
        if s.t_s - start > horizon {
            let recovered = activity_since
                || transition_times
                    .iter()
                    .any(|&t| t > start && t <= start + horizon);
            if !recovered {
                return Err(format!(
                    "sub-{OUTAGE_SNR_DB} dB outage from t={start:.3} showed no probing or \
                     lifecycle activity within the {horizon:.3} s recovery horizon"
                ));
            }
            // Activity happened: restart the clock on the remaining outage.
            outage_start = Some(s.t_s);
            activity_since = false;
        }
    }
    Ok(())
}

/// Runs one spec against the oracles. `Ok((digest, reliability))` when
/// every oracle passes; the first violation otherwise.
pub fn check_spec(spec: &ScenarioSpec, opts: &OracleOptions) -> Result<(u64, f64), FuzzFailure> {
    match &spec.fleet {
        Some(_) => check_fleet_spec(spec, opts),
        None => check_single_spec(spec, opts),
    }
}

fn check_single_spec(spec: &ScenarioSpec, opts: &OracleOptions) -> Result<(u64, f64), FuzzFailure> {
    let entry = JournalEntry::new(spec.cell_key(), Ok((0, 0.0)));
    let (result, digest) = replay_cell(&entry).map_err(run_failure)?;
    let reliability = result.reliability();
    let completed = |oracle: &'static str, detail: String| FuzzFailure {
        oracle,
        detail,
        status: "ok".to_string(),
        digest,
        reliability,
    };
    check_lifecycle(&result, opts.inject_wedge).map_err(|d| completed("lifecycle-wedge", d))?;
    check_outage_recovery(spec, &result).map_err(|d| completed("outage-recovery", d))?;
    let (_, digest2) = replay_cell(&entry).map_err(run_failure)?;
    if digest2 != digest {
        return Err(completed(
            "determinism",
            format!("re-run digest {digest2:016x} != first digest {digest:016x}"),
        ));
    }
    if spec.fault.is_inert() && spec.impairment.is_inert() {
        // Clean spec ≡ clean constructor run: build the scenario directly
        // (no decorators, no spec machinery) and demand the same digest.
        let clean = (|| -> Result<u64, String> {
            let sc = spec.world.build(spec.seed).map_err(|e| e.to_string())?;
            let mut strategy = crate::campaign::build_strategy(&spec.strategy)
                .ok_or_else(|| format!("unknown strategy {:?}", spec.strategy))?;
            let r = sc.simulator(spec.seed).run_with_warmup(
                strategy.as_mut(),
                sc.duration_s,
                sc.tick_period_s,
                sc.name,
                sc.warmup_s,
            );
            Ok(r.digest())
        })()
        .map_err(|d| completed("clean-identity", d))?;
        if clean != digest {
            return Err(completed(
                "clean-identity",
                format!("clean constructor digest {clean:016x} != spec-path digest {digest:016x}"),
            ));
        }
    }
    Ok((digest, reliability))
}

fn check_fleet_spec(spec: &ScenarioSpec, opts: &OracleOptions) -> Result<(u64, f64), FuzzFailure> {
    let fleet_fail = |oracle: &'static str, detail: String| FuzzFailure {
        oracle,
        detail,
        status: "validation".to_string(),
        digest: 0,
        reliability: 0.0,
    };
    let mut cfg = spec
        .fleet_config()
        .map_err(|e| fleet_fail("validation", e.to_string()))?;
    cfg.threads = 1;
    cfg.shards = 1;
    let report = run_fleet(&cfg).map_err(|e| fleet_fail("validation", e))?;
    let digest = report.digest;
    let reliability = report.mean_reliability();
    if opts.fleet_invariance {
        cfg.threads = 2;
        cfg.shards = 3;
        let report2 = run_fleet(&cfg).map_err(|e| fleet_fail("validation", e))?;
        if report2.digest != digest {
            return Err(FuzzFailure {
                oracle: "fleet-invariance",
                detail: format!(
                    "fleet digest {:016x} under 2 threads / 3 shards != {:016x} under 1/1",
                    report2.digest, digest
                ),
                status: "ok".to_string(),
                digest,
                reliability,
            });
        }
    }
    Ok((digest, reliability))
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// Structurally simpler variants of `spec`, most aggressive first. Every
/// candidate is strictly smaller by construction (fewer components or a
/// shorter duration), so greedy acceptance terminates.
fn shrink_candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    if let Some(fleet) = &spec.fleet {
        // Whole-fleet simplifications first: drop the fleet, then shrink it.
        let mut single = spec.clone();
        single.fleet = None;
        out.push(single);
        if fleet.n_ues > 1 {
            let mut s = spec.clone();
            s.fleet.as_mut().expect("fleet").n_ues = fleet.n_ues / 2;
            out.push(s);
        }
        if !fleet.groups.is_empty() {
            let mut s = spec.clone();
            s.fleet.as_mut().expect("fleet").groups.clear();
            out.push(s);
            if fleet.groups.len() > 1 {
                let mut s = spec.clone();
                s.fleet.as_mut().expect("fleet").groups.truncate(1);
                out.push(s);
            }
        }
    }
    if let WorldSpec::Custom(w) = &spec.world {
        if !w.blockers.is_empty() {
            let mut s = spec.clone();
            if let WorldSpec::Custom(w) = &mut s.world {
                w.blockers.clear();
            }
            out.push(s);
            for i in 0..w.blockers.len() {
                let mut s = spec.clone();
                if let WorldSpec::Custom(w) = &mut s.world {
                    w.blockers.remove(i);
                }
                out.push(s);
            }
        }
        match w.traj {
            TrajSpec::Translation {
                x, y, facing_deg, ..
            }
            | TrajSpec::Static { x, y, facing_deg }
                if !matches!(w.traj, TrajSpec::Static { .. }) =>
            {
                let mut s = spec.clone();
                if let WorldSpec::Custom(w) = &mut s.world {
                    w.traj = TrajSpec::Static { x, y, facing_deg };
                }
                out.push(s);
            }
            TrajSpec::Rotation { .. } => {
                let mut s = spec.clone();
                if let WorldSpec::Custom(w) = &mut s.world {
                    w.traj = TrajSpec::Static {
                        x: 0.9,
                        y: 7.0,
                        facing_deg: 180.0,
                    };
                }
                out.push(s);
            }
            _ => {}
        }
        if w.duration_s > 0.3 {
            let mut s = spec.clone();
            if let WorldSpec::Custom(w) = &mut s.world {
                w.duration_s = (w.duration_s / 2.0).max(0.3);
            }
            out.push(s);
        }
        if w.max_bounces > 1 {
            let mut s = spec.clone();
            if let WorldSpec::Custom(w) = &mut s.world {
                w.max_bounces = 1;
            }
            out.push(s);
        }
    }
    if !spec.fault.is_inert() {
        let mut s = spec.clone();
        s.fault = FaultSchedule::none();
        out.push(s);
        // One component at a time.
        if !spec.fault.probe_loss.is_empty() {
            let mut s = spec.clone();
            s.fault.probe_loss.clear();
            out.push(s);
        }
        if spec.fault.stale_prob != 0.0 {
            let mut s = spec.clone();
            s.fault.stale_prob = 0.0;
            out.push(s);
        }
        if spec.fault.snr_glitch.is_some() {
            let mut s = spec.clone();
            s.fault.snr_glitch = None;
            out.push(s);
        }
        if !spec.fault.failed_elements.is_empty() {
            let mut s = spec.clone();
            s.fault.failed_elements.clear();
            out.push(s);
        }
        if spec.fault.gain_drift_db != 0.0 {
            let mut s = spec.clone();
            s.fault.gain_drift_db = 0.0;
            out.push(s);
        }
        if !spec.fault.unavailable.is_empty() {
            let mut s = spec.clone();
            s.fault.unavailable.clear();
            out.push(s);
        }
    }
    if !spec.impairment.is_inert() {
        let mut s = spec.clone();
        s.impairment = ImpairmentConfig::none();
        out.push(s);
    }
    out.retain(|s| s.validate().is_ok());
    out
}

/// Deterministic greedy shrink: repeatedly tries the structurally simpler
/// candidates and accepts the first one that still fails the *same*
/// oracle, until no candidate does. Returns the minimal spec and its
/// failure. Bounded — every accepted candidate strictly reduces the
/// spec's textual size, so the loop terminates.
pub fn shrink_spec(
    spec: &ScenarioSpec,
    failure: &FuzzFailure,
    opts: &OracleOptions,
) -> (ScenarioSpec, FuzzFailure) {
    let mut best = spec.clone();
    let mut best_failure = failure.clone();
    let mut best_len = best.spec_string().len();
    loop {
        let mut improved = false;
        for cand in shrink_candidates(&best) {
            let cand_len = cand.spec_string().len();
            if cand_len >= best_len {
                continue;
            }
            if let Err(f) = check_spec(&cand, opts) {
                if f.oracle == best_failure.oracle {
                    best = cand;
                    best_failure = f;
                    best_len = cand_len;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            return (best, best_failure);
        }
    }
}

// ---------------------------------------------------------------------------
// The fuzz campaign
// ---------------------------------------------------------------------------

/// A shrunk, replayable counterexample.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The originally-generated failing spec.
    pub original: ScenarioSpec,
    /// The shrunk minimal spec.
    pub spec: ScenarioSpec,
    /// The minimal spec's oracle violation.
    pub failure: FuzzFailure,
    /// The replayable journal line for the minimal spec: `status`/`digest`
    /// reproduce under [`crate::campaign::replay_line`], and `message`
    /// names the failing oracle.
    pub entry: JournalEntry,
}

/// What one fuzz campaign did.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases generated and checked.
    pub cases_run: u32,
    /// Canonical spec strings of every generated case, in order — the
    /// corpus artifact CI uploads.
    pub corpus: Vec<String>,
    /// The first oracle violation, shrunk; `None` when all cases passed.
    pub counterexample: Option<Counterexample>,
}

/// The journal line a counterexample writes: the spec's cell identity with
/// the observed outcome and a `fuzz:{oracle}` message, parseable by
/// [`JournalEntry::parse`] and replayable by `mmwave-admin diff <journal>
/// --replay --cell <id>`.
pub fn counterexample_entry(spec: &ScenarioSpec, failure: &FuzzFailure) -> JournalEntry {
    let mut entry = JournalEntry::new(spec.cell_key(), Ok((failure.digest, failure.reliability)));
    entry.status = failure.status.clone();
    entry.message = format!("fuzz:{}: {}", failure.oracle, failure.detail);
    entry
}

/// Runs a bounded fuzz campaign: `cases` specs drawn deterministically
/// from `name` (the [`TestRng::from_name`] stream), each checked against
/// the oracles; the first violation is shrunk and returned. Same `name` +
/// same `cases` ⇒ the same specs, the same verdicts, bit for bit.
pub fn run_fuzz(name: &str, cases: u32, opts: &OracleOptions) -> FuzzReport {
    let strategy = arb_spec();
    let mut rng = TestRng::from_name(name);
    let mut report = FuzzReport::default();
    for _ in 0..cases {
        let spec = strategy.new_value(&mut rng);
        debug_assert!(spec.validate().is_ok(), "generator produced invalid spec");
        report.corpus.push(spec.spec_string());
        report.cases_run += 1;
        if let Err(failure) = check_spec(&spec, opts) {
            let (min_spec, min_failure) = shrink_spec(&spec, &failure, opts);
            let entry = counterexample_entry(&min_spec, &min_failure);
            report.counterexample = Some(Counterexample {
                original: spec,
                spec: min_spec,
                failure: min_failure,
                entry,
            });
            return report;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_specs_are_valid_and_round_trip() {
        let strategy = arb_spec();
        let mut rng = TestRng::from_name("fuzz-gen-validity");
        for _ in 0..64 {
            let spec = strategy.new_value(&mut rng);
            spec.validate().expect("generated spec must validate");
            let s = spec.spec_string();
            let back = ScenarioSpec::parse_spec(&s).expect("spec string parses back");
            assert_eq!(back, spec, "round-trip mismatch for {s}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let strategy = arb_spec();
        let draw = || {
            let mut rng = TestRng::from_name("fuzz-determinism");
            (0..16)
                .map(|_| strategy.new_value(&mut rng).spec_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn recovery_horizon_accounts_for_scheduled_dark_time() {
        let mut spec = ScenarioSpec::single(WorldSpec::StaticWalker, "mmreliable", 1);
        assert_eq!(recovery_horizon_s(&spec), RECOVERY_HORIZON_S);
        spec.fault.unavailable.push((0.1, 0.3));
        spec.fault.probe_loss.push(ProbeLossWindow {
            start_s: 0.0,
            end_s: 0.05,
            loss_prob: 1.0,
        });
        let h = recovery_horizon_s(&spec);
        assert!((h - (RECOVERY_HORIZON_S + 0.2 + 0.05)).abs() < 1e-12);
    }

    #[test]
    fn shrink_candidates_are_strictly_simpler_and_valid() {
        let strategy = arb_spec();
        let mut rng = TestRng::from_name("fuzz-shrink-cands");
        for _ in 0..32 {
            let spec = strategy.new_value(&mut rng);
            for cand in shrink_candidates(&spec) {
                cand.validate().expect("shrink candidate must validate");
            }
        }
    }
}
