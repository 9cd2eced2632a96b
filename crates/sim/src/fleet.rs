//! Fleet-scale cell simulation: many UEs sharing one environment.
//!
//! The paper evaluates one gNB–UE link at a time; a deployment serves a
//! cell of them. This module runs N independent per-UE link simulations
//! as *one cell*:
//!
//! - **Shared environment** — the UE-independent half of the image-source
//!   ray trace (per-wall gNB images) is computed once per cell in a
//!   [`SharedSceneCache`] and shared read-only by every UE's
//!   [`mmwave_channel::DynamicChannel`]. Cached traces are bit-identical
//!   to uncached ones, so sharing is a pure amortization.
//! - **StateHandler/IO** — per-UE link lifecycle state is owned by one
//!   [`StateHandler`] per shard. The fleet loop never touches a
//!   `LinkLifecycle` directly: it derives typed [`Intent`]s from each
//!   UE's new sample window and submits them through an [`IntentQueue`];
//!   the handler drains and applies them once per pass. The
//!   `lifecycle-single-writer` and fleet-scope lints enforce this
//!   split mechanically.
//! - **Deterministic sharding** — UE → shard is a pure function of
//!   `(fleet seed, ue)`, and every UE's run is seeded from
//!   `(fleet seed, ue)` alone, so the fleet digest is invariant to the
//!   worker-thread count and to the shard count: parallelism changes
//!   wall-clock, never results.
//! - **Pass cadence** — shards interleave their UEs in passes of the
//!   paper's 25 ms probe cadence ([`PASS_PERIOD_S`]): every UE advances
//!   to the pass boundary via [`SlotLoop::advance_until`], then the
//!   shard's handler applies the queued intents in one batch.
//!
//! A fleet of size 1 is bit-identical to the single-link pipeline: UE 0
//! runs under the fleet seed itself, the shared cache is arithmetic-
//! neutral, and `SlotLoop` stepping is control-flow slicing of the exact
//! single-link loop.
//!
//! Journaling reuses the campaign's crash-consistent JSONL format and
//! writer ([`LineFile`]) with a distinguishable scenario form: per-UE
//! lines are `fleet:{base}:{n}:ue{k}` (seed = the UE's derived seed) and
//! one aggregate line `fleet:{base}:{n}` (seed = the fleet seed, digest =
//! the fleet digest). [`crate::campaign::replay_line`] re-executes a per-UE
//! line as a plain single-link cell — bit-identically — and notes and
//! skips (never errors on) fleet forms a binary predates.

use crate::campaign::{
    build_scenario, build_strategy, CellKey, JournalEntry, LineFile, STRATEGY_NAMES,
};
use crate::faults::FaultSchedule;
use crate::impairments::ImpairmentConfig;
use crate::metrics::RunResult;
use crate::simulator::{front_end_stack, FrontEndStack, SlotLoop};
use crate::spec::{is_registry_name, mix_fields, registry_names, MixGroup};
use mmreliable::linkstate::LifecycleConfig;
use mmreliable::{Intent, IntentKind, IntentQueue, StateHandler, UeId};
use mmwave_baselines::strategy::BeamStrategy;
use mmwave_channel::{SharedSceneCache, SharedSceneCounters};
use mmwave_hotpath::hot_path;
use mmwave_telemetry::{LatencyHist, StopWatch};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Handler-pass cadence: the paper's 25 ms probing period (§5.2). Every
/// pass, each UE advances 25 ms of simulated time and the shard's
/// [`StateHandler`] applies one batch of intents.
pub const PASS_PERIOD_S: f64 = 25e-3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The seed a fleet member runs under. UE 0 runs under the fleet seed
/// itself — that is what makes a fleet of size 1 bit-identical to the
/// single-link pipeline at the same seed.
pub fn ue_seed(fleet_seed: u64, ue: u32) -> u64 {
    fleet_seed.wrapping_add(ue as u64)
}

/// Deterministic UE → shard assignment: a pure function of the fleet seed
/// and the UE index, independent of thread count and submission order.
pub fn shard_of(fleet_seed: u64, ue: u32, n_shards: usize) -> usize {
    assert!(n_shards > 0, "shard count must be positive");
    let mut h = FNV_OFFSET;
    h = fnv_u64(h, fleet_seed);
    h = fnv_u64(h, ue as u64);
    (h % n_shards as u64) as usize
}

/// The fleet digest: FNV-1a over `(ue, per-UE digest)` in UE order.
/// Because every per-UE run is independent and fully determined by its
/// derived seed, this digest is invariant to worker/shard count.
pub fn fleet_digest(outcomes: &[UeOutcome]) -> u64 {
    let mut h = FNV_OFFSET;
    for o in outcomes {
        h = fnv_u64(h, o.ue as u64);
        h = fnv_u64(h, o.digest);
    }
    h
}

/// The fault/impairment pair fleet member `ue` runs under, derived from
/// the fleet's mix groups: group `ue % groups.len()`, with both seeds
/// offset by `ue` so every member of a group draws its own fault and
/// impairment realization while staying a pure function of `(mix, ue)`.
/// `None` for the clean fleet (empty mix).
pub fn ue_mix(mix: &[MixGroup], ue: u32) -> Option<(FaultSchedule, ImpairmentConfig)> {
    if mix.is_empty() {
        return None;
    }
    let g = &mix[ue as usize % mix.len()];
    let mut fault = g.fault.clone();
    fault.seed = fault.seed.wrapping_add(ue as u64);
    let mut impairment = g.impairment.clone();
    impairment.seed = impairment.seed.wrapping_add(ue as u64);
    Some((fault, impairment))
}

/// The canonical `(fault, impairment)` spec strings member `ue` journals
/// under — [`ue_mix`]'s derived pair serialized, `("none", "none")` for a
/// clean fleet. Per-UE journal lines carry these, which is what makes a
/// mixed member's line replayable as a plain single-link faulted cell.
pub fn ue_mix_specs(mix: &[MixGroup], ue: u32) -> (String, String) {
    match ue_mix(mix, ue) {
        None => ("none".to_string(), "none".to_string()),
        Some((f, i)) => (f.spec_string(), i.spec_string()),
    }
}

// ---------------------------------------------------------------------------
// Fleet scenario identity (journal / replay vocabulary)
// ---------------------------------------------------------------------------

/// Journal scenario field for the fleet's aggregate line.
pub fn fleet_scenario_id(base: &str, n_ues: u32) -> String {
    format!("fleet:{base}:{n_ues}")
}

/// Journal scenario field for one fleet member's line.
pub fn fleet_ue_scenario_id(base: &str, n_ues: u32, ue: u32) -> String {
    format!("fleet:{base}:{n_ues}:ue{ue}")
}

/// A parsed fleet journal scenario field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetScenarioRef {
    /// `fleet:{base}:{n}` — the whole-fleet aggregate line (seed = fleet
    /// seed, digest = fleet digest).
    Aggregate {
        /// Base single-link scenario registry name.
        base: String,
        /// Fleet size.
        n_ues: u32,
    },
    /// `fleet:{base}:{n}:ue{k}` — one member's line (seed = the UE's
    /// derived seed, digest = the UE's single-link run digest).
    PerUe {
        /// Base single-link scenario registry name.
        base: String,
        /// Fleet size.
        n_ues: u32,
        /// Member index in `0..n_ues`.
        ue: u32,
    },
}

/// Parses a fleet journal scenario field; `None` for anything that is not
/// a well-formed fleet form (including plain single-link names).
pub fn parse_fleet_scenario(s: &str) -> Option<FleetScenarioRef> {
    let rest = s.strip_prefix("fleet:")?;
    let parts: Vec<&str> = rest.split(':').collect();
    match parts.as_slice() {
        [base, n] => {
            let n_ues: u32 = n.parse().ok()?;
            (n_ues > 0 && !base.is_empty()).then(|| FleetScenarioRef::Aggregate {
                base: (*base).to_string(),
                n_ues,
            })
        }
        [base, n, ue] => {
            let n_ues: u32 = n.parse().ok()?;
            let ue: u32 = ue.strip_prefix("ue")?.parse().ok()?;
            (n_ues > 0 && !base.is_empty()).then(|| FleetScenarioRef::PerUe {
                base: (*base).to_string(),
                n_ues,
                ue,
            })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// A fully-specified fleet experiment.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Base single-link scenario registry name (see
    /// [`crate::spec::registry_names`]); every UE plays this scenario
    /// under its derived seed.
    pub scenario: String,
    /// Strategy registry name; each UE gets a fresh instance.
    pub strategy: String,
    /// Fleet size.
    pub n_ues: u32,
    /// Fleet seed; member k runs under [`ue_seed`]`(seed, k)`.
    pub seed: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Shard count (0 = same as the resolved thread count). The digest is
    /// invariant to this; it only controls batching.
    pub shards: usize,
    /// Handler-pass cadence, seconds (defaults to [`PASS_PERIOD_S`]).
    pub pass_period_s: f64,
    /// Crash-consistent JSONL journal for kill + resume; `None` disables
    /// journaling.
    pub journal: Option<PathBuf>,
    /// Heterogeneous per-UE fault/impairment mix groups, assigned
    /// round-robin ([`ue_mix`]). Empty = every UE clean (the pre-mix
    /// fleet, bit-identically).
    pub mix: Vec<MixGroup>,
    /// Metrics-registry snapshot (JSONL) output path: per-UE handler
    /// stats, fleet pass-latency histogram, and shared-cache counters,
    /// in the mergeable form `mmwave-admin metrics` reads. Requires the
    /// `telemetry` feature — without it the run notes the skip on stderr
    /// (the simulation payload is identical either way).
    pub metrics: Option<PathBuf>,
}

impl FleetConfig {
    /// A fleet with the default cadence, no journal, auto threads/shards.
    pub fn new(scenario: &str, strategy: &str, n_ues: u32, seed: u64) -> Self {
        Self {
            scenario: scenario.to_string(),
            strategy: strategy.to_string(),
            n_ues,
            seed,
            threads: 0,
            shards: 0,
            pass_period_s: PASS_PERIOD_S,
            journal: None,
            mix: Vec::new(),
            metrics: None,
        }
    }

    /// Fails fast on a config the registry cannot build.
    pub fn validate(&self) -> Result<(), String> {
        if !is_registry_name(&self.scenario) {
            return Err(format!(
                "unknown fleet base scenario {:?} (known: {})",
                self.scenario,
                registry_names().join(", ")
            ));
        }
        if !STRATEGY_NAMES.contains(&self.strategy.as_str()) {
            return Err(format!(
                "unknown strategy {:?} (known: {})",
                self.strategy,
                STRATEGY_NAMES.join(", ")
            ));
        }
        if self.n_ues == 0 {
            return Err("fleet needs at least one UE".to_string());
        }
        if self.pass_period_s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err("pass period must be positive".to_string());
        }
        for (i, g) in self.mix.iter().enumerate() {
            g.fault
                .validate()
                .map_err(|e| format!("mix group {i}: {e}"))?;
            g.impairment
                .validate()
                .map_err(|e| format!("mix group {i}: {e}"))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// One shard: a batch of UEs interleaved in handler passes
// ---------------------------------------------------------------------------

struct UeLane {
    ue: u32,
    sim: FrontEndStack,
    strategy: Box<dyn BeamStrategy + Send>,
    /// `Some` until [`FleetShard::finish`] consumes it.
    sl: Option<SlotLoop>,
    /// Samples already folded into intents.
    cursor: usize,
    established: bool,
    /// Running best pass-mean SNR, the handler's reference level.
    best_db: f64,
    done: bool,
}

/// What [`FleetShard::finish`] hands back.
pub struct ShardOutput {
    /// `(ue, run record)` in UE order.
    pub results: Vec<(u32, RunResult)>,
    /// The shard's handler (final per-UE lifecycle state + metrics).
    pub handler: StateHandler,
    /// Per-UE-normalized handler-pass wall latency.
    pub pass_latency: LatencyHist,
    /// Passes executed.
    pub passes: u64,
}

/// One shard of the fleet: its UEs' steppable runs plus the shard's
/// [`StateHandler`]. Single-threaded by construction — parallelism lives
/// one level up, across shards — which is why stepping it from the
/// zero-alloc harness or a test needs no synchronization.
pub struct FleetShard {
    lanes: Vec<UeLane>,
    handler: StateHandler,
    io: IntentQueue,
    pass: u64,
    pass_period_s: f64,
    hist: LatencyHist,
}

impl FleetShard {
    /// Builds the shard for `ues` (member indices into the fleet). The
    /// shared cache is installed on every lane whose scene geometry
    /// matches; a mismatch (a seed-variant scene) falls back to live
    /// mirrors, which is slower but bit-identical.
    pub fn new(
        cfg: &FleetConfig,
        ues: &[u32],
        cache: Option<&Arc<SharedSceneCache>>,
    ) -> Result<Self, String> {
        let mut lanes = Vec::with_capacity(ues.len());
        for &ue in ues {
            let seed = ue_seed(cfg.seed, ue);
            let sc = build_scenario(&cfg.scenario, seed)
                .ok_or_else(|| format!("unknown scenario {:?}", cfg.scenario))?;
            let mut strategy = build_strategy(&cfg.strategy)
                .ok_or_else(|| format!("unknown strategy {:?}", cfg.strategy))?;
            let mut raw = sc.simulator(seed);
            if let Some(c) = cache {
                if c.len() == raw.dynamic.scene.walls.len() {
                    raw.dynamic.set_shared_cache(Arc::clone(c));
                }
            }
            let (fault, impairment) = ue_mix(&cfg.mix, ue)
                .unwrap_or_else(|| (FaultSchedule::none(), ImpairmentConfig::none()));
            let mut sim = front_end_stack(raw, fault, impairment).map_err(|e| e.to_string())?;
            let sl = SlotLoop::new(
                &mut sim,
                strategy.as_mut(),
                sc.duration_s,
                sc.tick_period_s,
                sc.name,
                sc.warmup_s,
            );
            lanes.push(UeLane {
                ue,
                sim,
                strategy,
                sl: Some(sl),
                cursor: 0,
                established: false,
                best_db: f64::NEG_INFINITY,
                done: false,
            });
        }
        let handler = StateHandler::new(ues.iter().map(|&u| UeId(u)), LifecycleConfig::default());
        Ok(Self {
            handler,
            lanes,
            io: IntentQueue::new(),
            pass: 0,
            pass_period_s: cfg.pass_period_s,
            hist: LatencyHist::new(),
        })
    }

    /// Number of UEs in this shard.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True for a shard with no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Passes executed so far.
    pub fn passes(&self) -> u64 {
        self.pass
    }

    /// The shard's lifecycle owner (read-only view).
    pub fn handler(&self) -> &StateHandler {
        &self.handler
    }

    /// Per-UE-normalized handler-pass wall latency recorded so far.
    pub fn pass_latency(&self) -> &LatencyHist {
        &self.hist
    }

    /// Runs one handler pass: every live UE advances to the next pass
    /// boundary, its new sample window is folded into one intent, and the
    /// shard's handler applies the batch. Returns true once every lane
    /// has covered its full run. Steady-state passes are allocation-free
    /// (the zero-alloc harness pins this).
    #[hot_path]
    pub fn step_pass(&mut self) -> bool {
        let watch = StopWatch::start();
        let t_end = (self.pass + 1) as f64 * self.pass_period_s;
        let mut live = 0u64;
        for lane in self.lanes.iter_mut() {
            if lane.done {
                continue;
            }
            live += 1;
            // xtask-allow(hot-path-panic): the lane.done guard above means an unfinished lane always holds its slot loop
            let sl = lane.sl.as_mut().expect("lane already finished");
            lane.done = sl.advance_until(&mut lane.sim, lane.strategy.as_mut(), t_end);
            // Fold the new sample window into one intent: the pass-mean
            // non-probing SNR, stamped with the window's last sample time.
            let samples = sl.samples();
            debug_assert!(lane.cursor <= samples.len());
            let mut sum = 0.0f64;
            let mut n = 0u32;
            let mut t_last = 0.0f64;
            for s in &samples[lane.cursor..] {
                if !s.probing && s.snr_db.is_finite() {
                    sum += s.snr_db;
                    n += 1;
                    t_last = s.t_s;
                }
            }
            lane.cursor = samples.len();
            if n > 0 {
                let mean = sum / n as f64;
                let kind = if lane.established {
                    let kind = IntentKind::SnrReport {
                        snr_db: mean,
                        ref_db: lane.best_db,
                        unexplained_drop: false,
                    };
                    if mean > lane.best_db {
                        lane.best_db = mean;
                    }
                    kind
                } else {
                    lane.established = true;
                    lane.best_db = mean;
                    IntentKind::Establish {
                        ok: true,
                        snr_db: mean,
                    }
                };
                self.io.submit(Intent {
                    ue: UeId(lane.ue),
                    t_s: t_last,
                    kind,
                });
            }
        }
        self.handler.pass(&mut self.io);
        // Whole-pass wall time normalized per live UE: the per-UE
        // handler-pass cost the bench reports percentiles of.
        if let Some(per_ue_ns) = watch.elapsed_ns().checked_div(live) {
            self.hist.record(per_ue_ns);
        }
        self.pass += 1;
        self.lanes.iter().all(|l| l.done)
    }

    /// Steps passes until every lane is done.
    pub fn run_to_completion(&mut self) {
        while !self.step_pass() {}
    }

    /// Finalizes every lane into its [`RunResult`].
    pub fn finish(self) -> ShardOutput {
        let Self {
            mut lanes,
            handler,
            hist,
            pass,
            ..
        } = self;
        let mut results = Vec::with_capacity(lanes.len());
        for lane in lanes.iter_mut() {
            let sl = lane.sl.take().expect("lane already finished");
            let r = sl.finish(&mut lane.sim, lane.strategy.as_mut());
            results.push((lane.ue, r));
        }
        ShardOutput {
            results,
            handler,
            pass_latency: hist,
            passes: pass,
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet report
// ---------------------------------------------------------------------------

/// One fleet member's terminal outcome.
#[derive(Clone, Copy, Debug)]
pub struct UeOutcome {
    /// Member index.
    pub ue: u32,
    /// The seed the member ran under ([`ue_seed`]).
    pub seed: u64,
    /// The member's single-link run digest.
    pub digest: u64,
    /// Headline reliability of the member's run.
    pub reliability: f64,
    /// Whether the handler left the member's link established
    /// (Steady/Degraded). True for resumed members (journaled ok).
    pub established: bool,
    /// True when the member was resumed from the journal, not re-run.
    pub resumed: bool,
}

/// The whole fleet's outcome.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Aggregate scenario id (`fleet:{base}:{n}`).
    pub scenario: String,
    /// Strategy registry name.
    pub strategy: String,
    /// Fleet seed.
    pub seed: u64,
    /// Shard count the run used.
    pub shards: usize,
    /// Per-member outcomes in UE order.
    pub outcomes: Vec<UeOutcome>,
    /// Fleet digest ([`fleet_digest`]).
    pub digest: u64,
    /// Non-probing data slots executed this run (excludes resumed
    /// members).
    pub data_slots: u64,
    /// Max passes over shards.
    pub passes: u64,
    /// Per-UE-normalized handler-pass latency, merged across shards.
    pub pass_latency: LatencyHist,
    /// Shared-environment cache counters (zeros unless `perf-counters`).
    pub cache: SharedSceneCounters,
    /// Wall-clock for the execution phase, nanoseconds.
    pub elapsed_ns: u64,
}

impl FleetReport {
    /// Executed UE-slot throughput (data slots per wall second).
    pub fn ue_slots_per_s(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.data_slots as f64 / (self.elapsed_ns as f64 * 1e-9)
    }

    /// Members resumed from the journal.
    pub fn resumed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.resumed).count()
    }

    /// Mean member reliability.
    pub fn mean_reliability(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.reliability).sum::<f64>() / self.outcomes.len() as f64
    }
}

/// The cell key member `ue` journals under: its per-UE scenario form,
/// derived seed and derived fault/impairment specs.
fn member_key(cfg: &FleetConfig, ue: u32) -> CellKey {
    let (fault_spec, impairment_spec) = ue_mix_specs(&cfg.mix, ue);
    CellKey {
        scenario: fleet_ue_scenario_id(&cfg.scenario, cfg.n_ues, ue),
        strategy: cfg.strategy.clone(),
        seed: ue_seed(cfg.seed, ue),
        fault_spec,
        impairment_spec,
    }
}

fn aggregate_entry(cfg: &FleetConfig, report: &FleetReport) -> JournalEntry {
    let (fault_spec, impairment_spec) = mix_fields(&cfg.mix);
    let key = CellKey {
        scenario: fleet_scenario_id(&cfg.scenario, cfg.n_ues),
        strategy: cfg.strategy.clone(),
        seed: cfg.seed,
        fault_spec,
        impairment_spec,
    };
    JournalEntry::new(key, Ok((report.digest, report.mean_reliability())))
}

// ---------------------------------------------------------------------------
// The fleet scheduler
// ---------------------------------------------------------------------------

/// Runs the fleet to completion: resolves resumed members from the
/// journal, shards the rest deterministically, executes shards across
/// worker threads, and assembles the thread-count-invariant fleet digest.
pub fn run_fleet(cfg: &FleetConfig) -> Result<FleetReport, String> {
    cfg.validate()?;
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        cfg.threads
    };
    let shards = if cfg.shards == 0 { threads } else { cfg.shards };

    // Resume: a journaled ok line with the cell key member `ue` would
    // write supplies that member's digest without re-running it.
    let n = cfg.n_ues as usize;
    let mut resumed: Vec<Option<(u64, f64)>> = vec![None; n];
    let mut journal = None;
    if let Some(path) = &cfg.journal {
        let (file, entries) = LineFile::open_journal(path)?;
        let ok: BTreeMap<String, &JournalEntry> = entries
            .iter()
            .filter(|e| e.status == "ok")
            .map(|e| (e.key.id(), e))
            .collect();
        for (ue, slot) in (0..cfg.n_ues).zip(resumed.iter_mut()) {
            *slot = ok
                .get(&member_key(cfg, ue).id())
                .map(|e| (e.digest, e.reliability));
        }
        journal = Some(Mutex::new(file));
    }

    // Deterministic sharding of the members still to run.
    let mut shard_ues: Vec<Vec<u32>> = vec![Vec::new(); shards];
    for ue in 0..cfg.n_ues {
        if resumed[ue as usize].is_none() {
            shard_ues[shard_of(cfg.seed, ue, shards)].push(ue);
        }
    }

    // The shared environment: per-wall gNB images computed once for the
    // whole cell. Scene geometry is seed-independent for every registry
    // scenario; `FleetShard::new` double-checks per lane anyway.
    let reference = build_scenario(&cfg.scenario, cfg.seed)
        .ok_or_else(|| format!("unknown scenario {:?}", cfg.scenario))?;
    let cache = Arc::new(SharedSceneCache::build(&reference.dynamic.scene));

    let watch = StopWatch::start();
    let next_shard = AtomicUsize::new(0);
    let outputs: Mutex<Vec<ShardOutput>> = Mutex::new(Vec::new());
    let first_err: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(shards) {
            scope.spawn(|| loop {
                let s = next_shard.fetch_add(1, Ordering::Relaxed);
                if s >= shards {
                    break;
                }
                if shard_ues[s].is_empty() {
                    continue;
                }
                let mut shard = match FleetShard::new(cfg, &shard_ues[s], Some(&cache)) {
                    Ok(shard) => shard,
                    Err(e) => {
                        first_err.lock().expect("poisoned").get_or_insert(e);
                        break;
                    }
                };
                shard.run_to_completion();
                let out = shard.finish();
                if let Some(j) = &journal {
                    let lines = out.results.iter().map(|(ue, r)| {
                        JournalEntry::new(member_key(cfg, *ue), Ok((r.digest(), r.reliability())))
                            .to_json()
                    });
                    let committed = j.lock().expect("poisoned").append(lines);
                    if let Err(e) = committed {
                        first_err.lock().expect("poisoned").get_or_insert(e);
                        break;
                    }
                }
                outputs.lock().expect("poisoned").push(out);
            });
        }
    });
    if let Some(e) = first_err.into_inner().expect("poisoned") {
        return Err(e);
    }
    let elapsed_ns = watch.elapsed_ns();

    // Assemble in UE order: resumed members from the journal, executed
    // members from their shard outputs.
    let mut per_ue: Vec<Option<UeOutcome>> = resumed
        .iter()
        .enumerate()
        .map(|(ue, r)| {
            r.map(|(digest, reliability)| UeOutcome {
                ue: ue as u32,
                seed: ue_seed(cfg.seed, ue as u32),
                digest,
                reliability,
                established: true,
                resumed: true,
            })
        })
        .collect();
    let mut data_slots = 0u64;
    let mut pass_latency = LatencyHist::new();
    let mut passes = 0u64;
    #[cfg(feature = "telemetry")]
    let mut registry = cfg
        .metrics
        .as_ref()
        .map(|_| mmwave_telemetry::MetricsRegistry::new());
    #[cfg(not(feature = "telemetry"))]
    if cfg.metrics.is_some() {
        eprintln!("note: --metrics requested but the `telemetry` feature is off; skipping");
    }
    for out in outputs.into_inner().expect("poisoned") {
        let ShardOutput {
            results,
            handler,
            pass_latency: shard_hist,
            passes: shard_passes,
        } = out;
        #[cfg(feature = "telemetry")]
        if let Some(reg) = registry.as_mut() {
            handler.publish_metrics(reg);
        }
        pass_latency.merge(&shard_hist);
        passes = passes.max(shard_passes);
        for (ue, r) in results {
            r.validate()?;
            data_slots += r.samples.iter().filter(|s| !s.probing).count() as u64;
            let established = handler.state(UeId(ue)).is_some_and(|s| s.is_established());
            per_ue[ue as usize] = Some(UeOutcome {
                ue,
                seed: ue_seed(cfg.seed, ue),
                digest: r.digest(),
                reliability: r.reliability(),
                established,
                resumed: false,
            });
        }
    }
    let outcomes: Vec<UeOutcome> = per_ue
        .into_iter()
        .enumerate()
        .map(|(ue, o)| o.ok_or_else(|| format!("internal: ue{ue} produced no outcome")))
        .collect::<Result<_, _>>()?;
    let digest = fleet_digest(&outcomes);
    let report = FleetReport {
        scenario: fleet_scenario_id(&cfg.scenario, cfg.n_ues),
        strategy: cfg.strategy.clone(),
        seed: cfg.seed,
        shards,
        outcomes,
        digest,
        data_slots,
        passes,
        pass_latency,
        cache: cache.counters(),
        elapsed_ns,
    };
    if let Some(j) = &journal {
        j.lock()
            .expect("poisoned")
            .append([aggregate_entry(cfg, &report).to_json()])?;
    }
    #[cfg(feature = "telemetry")]
    if let (Some(path), Some(mut reg)) = (cfg.metrics.as_ref(), registry.take()) {
        let fleet = reg.resource(&report.scenario);
        let c_passes = reg.counter(fleet, "passes");
        let c_data = reg.counter(fleet, "data_slots");
        let c_imgs = reg.counter(fleet, "cache_images_built");
        let c_traces = reg.counter(fleet, "cache_traces_served");
        let c_mirror = reg.counter(fleet, "cache_mirror_ops_saved");
        let h_pass = reg.histogram(fleet, "pass_latency_ns");
        reg.set_counter(c_passes, report.passes);
        reg.set_counter(c_data, report.data_slots);
        reg.set_counter(c_imgs, report.cache.images_built);
        reg.set_counter(c_traces, report.cache.traces_served);
        reg.set_counter(c_mirror, report.cache.mirror_ops_saved);
        reg.merge_hist(h_pass, &report.pass_latency);
        crate::campaign::write_lines_atomic(path, &reg.snapshot_jsonl())?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::SimFrontEnd;

    #[test]
    fn scenario_id_round_trips() {
        let agg = fleet_scenario_id("static-walker", 64);
        assert_eq!(
            parse_fleet_scenario(&agg),
            Some(FleetScenarioRef::Aggregate {
                base: "static-walker".to_string(),
                n_ues: 64
            })
        );
        let ue = fleet_ue_scenario_id("static-walker", 64, 7);
        assert_eq!(
            parse_fleet_scenario(&ue),
            Some(FleetScenarioRef::PerUe {
                base: "static-walker".to_string(),
                n_ues: 64,
                ue: 7
            })
        );
        assert_eq!(parse_fleet_scenario("static-walker"), None);
        assert_eq!(parse_fleet_scenario("fleet:x"), None);
        assert_eq!(parse_fleet_scenario("fleet:x:0"), None);
        assert_eq!(parse_fleet_scenario("fleet:x:4:7"), None);
    }

    #[test]
    fn sharding_is_total_and_deterministic() {
        for shards in [1usize, 2, 3, 7] {
            let mut counts = vec![0u32; shards];
            for ue in 0..100u32 {
                let s = shard_of(42, ue, shards);
                assert_eq!(s, shard_of(42, ue, shards));
                counts[s] += 1;
            }
            assert_eq!(counts.iter().sum::<u32>(), 100);
        }
    }

    #[test]
    fn fleet_of_one_is_bit_identical_to_single_link() {
        let cfg = FleetConfig {
            threads: 1,
            shards: 1,
            ..FleetConfig::new("static-walker", "single-beam-reactive", 1, 42)
        };
        let report = run_fleet(&cfg).expect("fleet runs");
        let sc = build_scenario("static-walker", 42).unwrap();
        let mut strategy = build_strategy("single-beam-reactive").unwrap();
        let single = sc.simulator(42).run_with_warmup(
            strategy.as_mut(),
            sc.duration_s,
            sc.tick_period_s,
            sc.name,
            sc.warmup_s,
        );
        assert_eq!(
            report.outcomes[0].digest,
            single.digest(),
            "fleet of size 1 must reproduce the single-link pipeline bit-identically"
        );
        assert!(report.outcomes[0].established);
        assert!(report.data_slots > 0);
    }

    #[test]
    fn digest_is_invariant_to_threads_and_shards() {
        let run = |threads: usize, shards: usize| {
            let cfg = FleetConfig {
                threads,
                shards,
                ..FleetConfig::new("translation-1s", "single-beam-reactive", 5, 7)
            };
            run_fleet(&cfg).expect("fleet runs").digest
        };
        let base = run(1, 1);
        assert_eq!(base, run(2, 2));
        assert_eq!(base, run(2, 5));
        assert_eq!(base, run(4, 3));
    }
}
