//! The three workloads and the closed loop that drives them.
//!
//! Every workload is a closed loop with one client: the benchmark thread
//! starts the next link or pass only when the previous one has returned.
//! A workload's inputs are a fixed set of distinct links or fleets per
//! `(seed, seconds)`; each runs once, and the output checks re-run a
//! sample that must repeat bit for bit.

use crate::wrap::{Recorder, TimedStrategy};
use mmwave_baselines::strategy::BeamStrategy;
use mmwave_channel::SharedSceneCache;
use mmwave_sim::campaign::{build_scenario, build_strategy};
use mmwave_sim::faults::{FaultSchedule, ProbeLossWindow, SnrGlitch};
use mmwave_sim::fleet::{ue_mix, ue_seed, FleetConfig, FleetShard, PASS_PERIOD_S};
use mmwave_sim::impairments::ImpairmentConfig;
use mmwave_sim::{
    scenario, FaultInjector, ImpairedFrontEnd, MixGroup, RunCounters, RunResult, Scenario,
    SimFrontEnd, SlotLoop,
};
use mmwave_telemetry::{LatencyHist, Stage};
use std::sync::Arc;
use std::time::Instant;

/// UEs per fleet.
pub const FLEET_UES: u32 = 32;
/// Link workloads: links re-run without the timing wrappers in the
/// output check.
pub const RERUN_LINKS: u32 = 2;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReactiveMobility,
    MmreliableMobility,
    FleetImpaired,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReactiveMobility,
        Workload::MmreliableMobility,
        Workload::FleetImpaired,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReactiveMobility => "reactive-mobility",
            Workload::MmreliableMobility => "mmreliable-mobility",
            Workload::FleetImpaired => "fleet-impaired",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Strategy registry name the workload's links or UEs run.
    pub fn strategy(self) -> &'static str {
        match self {
            Workload::MmreliableMobility => "mmreliable",
            _ => "single-beam-reactive",
        }
    }
}

/// Seed of link `i` of a link workload: consecutive from an even base, so
/// `scenario::mixed_mobility_blockage` alternates translation (even) and
/// rotation (odd) links.
pub fn link_seed(seed: u64, i: u32) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(u64::from(i))
}

/// Registry name of the scenario `mixed_mobility_blockage(seed)` builds.
pub fn link_scenario_name(seed: u64) -> &'static str {
    if seed.is_multiple_of(2) {
        "mobile-blockage"
    } else {
        "rotation-blockage"
    }
}

/// Fleet `f` of the fleet workload: `FLEET_UES` reactive UEs on
/// `static-walker`, with the four mix groups dealt round-robin.
pub fn fleet_config(seed: u64, f: u32) -> FleetConfig {
    let fleet_seed = seed.wrapping_mul(1000).wrapping_add(u64::from(f) * 100);
    let mut cfg = FleetConfig::new(
        "static-walker",
        Workload::FleetImpaired.strategy(),
        FLEET_UES,
        fleet_seed,
    );
    cfg.threads = 1;
    cfg.shards = 1;
    cfg.mix = mix_groups(fleet_seed);
    cfg
}

/// The four-group mix: clean; probe loss + stale CSI + SNR glitches;
/// moderate hardware impairments; element failures + gain drift on top of
/// mild impairments.
pub fn mix_groups(base: u64) -> Vec<MixGroup> {
    let lossy = FaultSchedule {
        seed: base ^ 0x5eed_0001,
        probe_loss: vec![ProbeLossWindow {
            start_s: 0.2,
            end_s: 0.8,
            loss_prob: 0.3,
        }],
        stale_prob: 0.1,
        snr_glitch: Some(SnrGlitch {
            prob: 0.1,
            mag_db: 6.0,
        }),
        ..FaultSchedule::none()
    };
    let aging = FaultSchedule {
        seed: base ^ 0x5eed_0003,
        failed_elements: vec![3, 17, 42],
        gain_drift_db: 1.5,
        gain_drift_period_s: 0.5,
        ..FaultSchedule::none()
    };
    vec![
        MixGroup {
            fault: FaultSchedule::none(),
            impairment: ImpairmentConfig::none(),
        },
        MixGroup {
            fault: lossy,
            impairment: ImpairmentConfig::none(),
        },
        MixGroup {
            fault: FaultSchedule::none(),
            impairment: ImpairmentConfig::moderate(base ^ 0x5eed_0002),
        },
        MixGroup {
            fault: aging,
            impairment: ImpairmentConfig::mild(base ^ 0x5eed_0004),
        },
    ]
}

/// Fleet members re-run as single links in the output check: three of mix
/// group 2 (moderate impairments), whose ticks are the fleet workload's
/// tick samples, and one of group 1 (faults) or 3 (faults and mild
/// impairments), alternating with the fleet index.
pub fn replayed_members(f: u32) -> [u32; 4] {
    let other = if f.is_multiple_of(2) { 1 } else { 3 };
    [2, 6, 10, other].map(|k| (f * 8 + k) % FLEET_UES)
}

/// Whether member `ue`'s ticks are tick samples of the fleet workload.
fn samples_ticks(ue: u32) -> bool {
    ue % 4 == 2
}

/// Behaviour of one run that must repeat bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fingerprint {
    pub digest: u64,
    pub reliability: f64,
    pub throughput_bps: f64,
}

impl Fingerprint {
    pub fn of(r: &RunResult) -> Self {
        let mcs = mmwave_phy::mcs::McsTable::nr_table();
        Self {
            digest: r.digest(),
            reliability: r.reliability(),
            throughput_bps: r.mean_throughput_bps(&mcs),
        }
    }

    fn same(&self, o: &Self) -> bool {
        self.digest == o.digest
            && self.reliability.to_bits() == o.reliability.to_bits()
            && self.throughput_bps.to_bits() == o.throughput_bps.to_bits()
    }
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Runs whose output was checked.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Data slots and time of the steady (post-warm-up) phase. Every time
    /// here is at nominal host speed (`calib`).
    pub steady_slots: u64,
    pub steady_ns: u64,
    /// Set-up (build + warm-up) time of each link or fleet.
    pub setup_ns: Vec<u64>,
    /// Time of each sampled `on_tick`.
    pub tick_ns: Vec<u64>,
    /// Time of each steady-state pass.
    pub pass_ns: Vec<u64>,
    /// Fingerprint of every timed link or fleet member, in input order.
    pub runs: Vec<Fingerprint>,
    /// Channel work counters summed over every run record produced.
    pub counters: RunCounters,
    /// Shared scene cache counters summed over every fleet built.
    pub images_built: u64,
    pub traces_served: u64,
    /// Telemetry stage histograms summed over every wrapped link.
    pub stages: Vec<LatencyHist>,
    /// Data slots simulated by wrapped links (set-up and steady).
    pub link_slots: u64,
    /// UE data slots simulated by fleets (set-up and steady).
    pub fleet_slots: u64,
    /// Traced fleet runs only: steady pass time of the mixed fleets and
    /// of the same fleets with an empty mix.
    pub mixed_fleet_ns: u64,
    pub clean_fleet_ns: u64,
}

impl Outcome {
    fn new() -> Self {
        Self {
            stages: vec![LatencyHist::new(); mmwave_telemetry::STAGE_COUNT],
            ..Self::default()
        }
    }

    /// Counts one checked run.
    fn check(&mut self, what: &str, res: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = res {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    fn absorb(&mut self, r: &RunResult) {
        let c = &r.counters;
        self.counters.snapshot_rebuilds += c.snapshot_rebuilds;
        self.counters.snapshot_reuses += c.snapshot_reuses;
        self.counters.snr_evals += c.snr_evals;
    }

    /// Checks a timed run and records its fingerprint.
    fn record_run(&mut self, what: &str, r: &RunResult) {
        let fp = Fingerprint::of(r);
        let res = r.validate().and_then(|()| {
            if (0.0..=1.0).contains(&fp.reliability) && fp.throughput_bps.is_finite() {
                Ok(())
            } else {
                Err(format!(
                    "reliability {} / throughput {} out of range",
                    fp.reliability, fp.throughput_bps
                ))
            }
        });
        self.runs.push(fp);
        self.absorb(r);
        self.check(what, res);
    }

    /// Checks a re-run of timed run `idx`: it must validate and repeat
    /// the timed run's digest, reliability and throughput bit for bit.
    fn check_rerun(&mut self, what: &str, idx: usize, rerun: Result<RunResult, String>) {
        let res = rerun.and_then(|r| {
            self.absorb(&r);
            r.validate()?;
            let fp = Fingerprint::of(&r);
            match self.runs.get(idx) {
                Some(timed) if timed.same(&fp) => Ok(()),
                Some(timed) => Err(format!("re-run gave {fp:?}, timed run {timed:?}")),
                None => Err("no timed run to compare with".into()),
            }
        });
        self.check(what, res);
    }
}

/// Number of links (link workloads) or fleets (fleet workload) a run of
/// `seconds` covers: sized so one run takes about `seconds` on a 2-core
/// x86-64 host, and a fixed function of `seconds` so equal arguments
/// give equal inputs.
pub fn input_count(w: Workload, seconds: f64) -> u32 {
    let per_s = match w {
        Workload::ReactiveMobility => 12.0,
        Workload::MmreliableMobility => 1.4,
        Workload::FleetImpaired => 0.4,
    };
    ((seconds * per_s).round() as u32).max(1)
}

/// Per-run timings of one link driven through [`drive`].
struct Driven {
    result: RunResult,
    setup_ns: u64,
    steady_ns: u64,
    steady_slots: u64,
    /// Index range of the steady-state ticks in `Recorder::tick_ns`.
    steady_ticks: std::ops::Range<usize>,
}

/// Builds one link with `build` and runs it to completion through the
/// public `SlotLoop` API with the strategy wrapped in a
/// [`TimedStrategy`]. Set-up is the build plus the warm-up passes; the
/// steady phase then advances one `PASS_PERIOD_S` window per
/// `advance_until` call, the slice a fleet pass gives each lane, and
/// pushes each call's time to `pass_ns`.
fn drive<H: SimFrontEnd>(
    rec: &mut Recorder,
    out: &mut Outcome,
    pass_ns: &mut Vec<u64>,
    build: impl FnOnce() -> Result<(H, Box<dyn BeamStrategy + Send>, Scenario), String>,
) -> Result<Driven, String> {
    rec.calibrate();
    let t0 = Instant::now();
    rec.open("build");
    let built = build();
    let (mut h, mut strategy, sc) = match built {
        Ok(b) => b,
        Err(e) => {
            rec.close();
            return Err(e);
        }
    };
    let tracer = traced_tracer();
    h.sim_mut().set_tracer(tracer.clone());
    rec.reserve_ticks((sc.total_time_s() / sc.tick_period_s) as usize + 8);
    pass_ns.reserve((sc.total_time_s() / PASS_PERIOD_S) as usize + 2);
    let strategy: &mut dyn BeamStrategy = strategy.as_mut();
    let mut sl = SlotLoop::new(
        &mut h,
        &mut TimedStrategy::new(strategy, rec),
        sc.duration_s,
        sc.tick_period_s,
        sc.name,
        sc.warmup_s,
    );
    rec.close();
    let warm_passes = (sc.warmup_s / PASS_PERIOD_S).ceil();
    rec.open("warmup");
    let mut done = sl.advance_until(
        &mut h,
        &mut TimedStrategy::new(strategy, rec),
        warm_passes * PASS_PERIOD_S,
    );
    rec.close();
    let setup_ns = rec.elapsed(t0);
    let warm_samples = sl.samples().len();
    let warm_ticks = rec.tick_ns.len();
    let mut steady_ns = 0;
    rec.open("steady");
    let mut pass = warm_passes;
    while !done {
        pass += 1.0;
        rec.calibrate();
        let p = Instant::now();
        done = sl.advance_until(
            &mut h,
            &mut TimedStrategy::new(strategy, rec),
            pass * PASS_PERIOD_S,
        );
        let ns = rec.elapsed(p);
        pass_ns.push(ns);
        steady_ns += ns;
    }
    rec.close();
    let steady_ticks = warm_ticks..rec.tick_ns.len();
    rec.open("finish");
    let result = sl.finish(&mut h, &mut TimedStrategy::new(strategy, rec));
    rec.close();
    let steady_slots = result.samples[warm_samples..]
        .iter()
        .filter(|s| !s.probing)
        .count() as u64;
    out.link_slots += result.samples.iter().filter(|s| !s.probing).count() as u64;
    for (acc, h) in out.stages.iter_mut().zip(tracer.histograms().iter()) {
        acc.merge(h);
    }
    Ok(Driven {
        result,
        setup_ns,
        steady_ns,
        steady_slots,
        steady_ticks,
    })
}

/// The tracer a wrapped link installs: stage histograms into a null sink
/// in the traced build, disabled otherwise.
fn traced_tracer() -> mmwave_telemetry::Tracer {
    if cfg!(feature = "traced") {
        mmwave_telemetry::Tracer::new(Box::new(mmwave_telemetry::NullSink), 1)
    } else {
        mmwave_telemetry::Tracer::disabled()
    }
}

fn strategy_for(name: &str) -> Result<Box<dyn BeamStrategy + Send>, String> {
    build_strategy(name).ok_or_else(|| format!("unknown strategy {name}"))
}

/// One link of a link workload, bare simulator.
fn build_link(
    w: Workload,
    seed: u64,
) -> Result<
    (
        mmwave_sim::LinkSimulator,
        Box<dyn BeamStrategy + Send>,
        Scenario,
    ),
    String,
> {
    let sc = scenario::mixed_mobility_blockage(seed);
    Ok((sc.simulator(seed), strategy_for(w.strategy())?, sc))
}

/// Per-run timings of one fleet stepped pass by pass.
struct Stepped {
    results: Vec<(u32, RunResult)>,
    setup_ns: u64,
    steady_ns: u64,
    steady_slots: u64,
}

/// Builds a single-shard fleet of members `ues` and steps it pass by
/// pass through the public `FleetShard` API, pushing each steady pass's
/// time to `pass_ns`. Set-up is the scene cache, the shard and the
/// passes covering the warm-up window.
fn step_fleet(
    cfg: &FleetConfig,
    ues: &[u32],
    rec: &mut Recorder,
    out: &mut Outcome,
    pass_ns: &mut Vec<u64>,
) -> Result<Stepped, String> {
    cfg.validate()?;
    rec.calibrate();
    let t0 = Instant::now();
    rec.open("cache_build");
    let reference = build_scenario(&cfg.scenario, cfg.seed)
        .ok_or_else(|| format!("unknown scenario {}", cfg.scenario));
    let cache = reference.map(|sc| {
        (
            Arc::new(SharedSceneCache::build(&sc.dynamic.scene)),
            sc.warmup_s,
            sc.total_time_s(),
        )
    });
    rec.close();
    let (cache, warmup_s, total_s) = cache?;
    rec.open("shard_new");
    let shard = FleetShard::new(cfg, ues, Some(&cache));
    rec.close();
    let mut shard = shard?;
    let warm_passes = (warmup_s / cfg.pass_period_s).ceil() as u64;
    rec.open("warm_passes");
    let mut done = false;
    while !done && shard.passes() < warm_passes {
        rec.open_id("pass", shard.passes() as u32);
        done = shard.step_pass();
        rec.close();
    }
    rec.close();
    let setup_ns = rec.elapsed(t0);
    pass_ns.reserve((total_s / cfg.pass_period_s) as usize + 2);
    let mut steady_ns = 0;
    rec.open("passes");
    while !done {
        rec.calibrate();
        rec.open_id("pass", shard.passes() as u32);
        let p = Instant::now();
        done = shard.step_pass();
        let ns = rec.elapsed(p);
        pass_ns.push(ns);
        steady_ns += ns;
        rec.close();
    }
    rec.close();
    rec.open("finish");
    let results = shard.finish().results;
    rec.close();
    let boundary_s = warm_passes as f64 * cfg.pass_period_s;
    let mut steady_slots = 0;
    for (_, r) in &results {
        let data = r.samples.iter().filter(|s| !s.probing);
        out.fleet_slots += data.clone().count() as u64;
        steady_slots += data.filter(|s| s.t_s >= boundary_s).count() as u64;
    }
    let c = cache.counters();
    out.images_built += c.images_built;
    out.traces_served += c.traces_served;
    Ok(Stepped {
        results,
        setup_ns,
        steady_ns,
        steady_slots,
    })
}

/// Runs workload `w` on the inputs of `seed` and `seconds` — every link
/// or fleet once, in order, on this thread — with the untimed output
/// checks.
pub fn run(w: Workload, seed: u64, seconds: f64, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::new();
    let n = input_count(w, seconds);
    match w {
        Workload::FleetImpaired => run_fleets(seed, n, rec, &mut out),
        _ => {
            run_links(w, seed, n, rec, &mut out);
            check_links(w, seed, rec, &mut out);
        }
    }
    out
}

fn run_links(w: Workload, seed: u64, n: u32, rec: &mut Recorder, out: &mut Outcome) {
    let mut pass_ns = Vec::new();
    for i in 0..n {
        let s = link_seed(seed, i);
        rec.open_id("link", i);
        let driven = drive(rec, out, &mut pass_ns, || build_link(w, s));
        rec.close();
        match driven {
            Ok(d) => {
                out.setup_ns.push(d.setup_ns);
                out.steady_ns += d.steady_ns;
                out.steady_slots += d.steady_slots;
                out.tick_ns.extend_from_slice(&rec.tick_ns[d.steady_ticks]);
                out.record_run(&format!("link {s}"), &d.result);
            }
            Err(e) => out.check(&format!("link {s}"), Err(e)),
        }
        rec.tick_ns.clear();
    }
    out.pass_ns = pass_ns;
}

fn run_fleets(seed: u64, n: u32, rec: &mut Recorder, out: &mut Outcome) {
    let mut pass_ns = Vec::new();
    let ues: Vec<u32> = (0..FLEET_UES).collect();
    for f in 0..n {
        let cfg = fleet_config(seed, f);
        rec.open_id("fleet", f);
        let stepped = step_fleet(&cfg, &ues, rec, out, &mut pass_ns);
        rec.close();
        match stepped {
            Ok(st) => {
                out.setup_ns.push(st.setup_ns);
                out.steady_ns += st.steady_ns;
                out.steady_slots += st.steady_slots;
                out.mixed_fleet_ns += st.steady_ns;
                for (ue, r) in &st.results {
                    out.record_run(&format!("fleet {} ue{ue}", cfg.seed), r);
                }
            }
            Err(e) => out.check(&format!("fleet {}", cfg.seed), Err(e)),
        }
        check_fleet_members(&cfg, f, rec, out);
    }
    out.pass_ns = pass_ns;
    if rec.spans.is_some() {
        clean_fleets(seed, n, rec, out);
    }
}

/// Output checks of a link workload: the first links re-run without the
/// timing wrappers must repeat their timed runs bit for bit, and the
/// first link re-run as a fleet of one (`FleetShard`, DESIGN §13) must
/// give the same digest.
fn check_links(w: Workload, seed: u64, rec: &mut Recorder, out: &mut Outcome) {
    for i in 0..RERUN_LINKS {
        let s = link_seed(seed, i);
        rec.open_id("replay", i);
        let plain = build_link(w, s).map(|(mut sim, mut strategy, sc)| {
            sim.run_with_warmup(
                strategy.as_mut(),
                sc.duration_s,
                sc.tick_period_s,
                sc.name,
                sc.warmup_s,
            )
        });
        rec.close();
        out.check_rerun(&format!("unwrapped link {s}"), i as usize, plain);
    }

    let s = link_seed(seed, 0);
    let cfg = FleetConfig::new(link_scenario_name(s), w.strategy(), 1, s);
    rec.open_id("replay", RERUN_LINKS);
    let stepped = step_fleet(&cfg, &[0], rec, out, &mut Vec::new());
    rec.close();
    let one = stepped.and_then(|st| {
        st.results
            .into_iter()
            .next()
            .map(|(_, r)| r)
            .ok_or_else(|| "fleet of one produced no result".to_string())
    });
    out.check_rerun(&format!("fleet-of-one link {s}"), 0, one);
}

/// Output check of fleet `f`: sampled members re-run as single links
/// through the same decorator stack must repeat their in-fleet runs bit
/// for bit. Every tick of the group-2 re-runs, initial beam training
/// included, is a tick sample of the fleet workload; checking after every
/// fleet spreads them over the whole run.
fn check_fleet_members(cfg: &FleetConfig, f: u32, rec: &mut Recorder, out: &mut Outcome) {
    for ue in replayed_members(f) {
        rec.open_id("replay", f * FLEET_UES + ue);
        let driven = replay_member(cfg, ue, rec, out, &mut Vec::new());
        rec.close();
        if samples_ticks(ue) {
            out.tick_ns.extend_from_slice(&rec.tick_ns);
        }
        rec.tick_ns.clear();
        let idx = (f * FLEET_UES + ue) as usize;
        out.check_rerun(
            &format!("fleet {} member ue{ue}", cfg.seed),
            idx,
            driven.map(|d| d.result),
        );
    }
}

/// The traced run's reference for the fault/impairment decorator stack:
/// the same fleets with an empty mix. The difference in steady pass time
/// is the stack's cost. The clean fleets are one `clean_fleet` span each
/// and count into no other layer.
fn clean_fleets(seed: u64, n: u32, rec: &mut Recorder, out: &mut Outcome) {
    let ues: Vec<u32> = (0..FLEET_UES).collect();
    for f in 0..n {
        let mut cfg = fleet_config(seed, f);
        cfg.mix.clear();
        rec.open_id("clean_fleet", f);
        let spans = rec.spans.take();
        let stepped = step_fleet(&cfg, &ues, rec, &mut Outcome::new(), &mut Vec::new());
        rec.spans = spans;
        rec.close();
        match stepped {
            Ok(st) => {
                out.clean_fleet_ns += st.steady_ns;
                for (_, r) in &st.results {
                    out.check(&format!("clean fleet {}", cfg.seed), r.validate());
                }
            }
            Err(e) => out.check(&format!("clean fleet {}", cfg.seed), Err(e)),
        }
    }
}

/// Re-runs fleet member `ue` of `cfg` as a single link under the member's
/// own fault/impairment stack (impairments nearest the hardware, faults
/// outermost, as the fleet builds it).
fn replay_member(
    cfg: &FleetConfig,
    ue: u32,
    rec: &mut Recorder,
    out: &mut Outcome,
    pass_ns: &mut Vec<u64>,
) -> Result<Driven, String> {
    let seed = ue_seed(cfg.seed, ue);
    let sc = build_scenario(&cfg.scenario, seed)
        .ok_or_else(|| format!("unknown scenario {}", cfg.scenario))?;
    let strategy = strategy_for(&cfg.strategy)?;
    let sim = sc.simulator(seed);
    let (fault, impairment) =
        ue_mix(&cfg.mix, ue).unwrap_or_else(|| (FaultSchedule::none(), ImpairmentConfig::none()));
    let err = |e: mmwave_sim::ScenarioError| e.to_string();
    match (fault.is_inert(), impairment.is_inert()) {
        (true, true) => drive(rec, out, pass_ns, || Ok((sim, strategy, sc))),
        (false, true) => drive(rec, out, pass_ns, || {
            Ok((FaultInjector::new(sim, fault).map_err(err)?, strategy, sc))
        }),
        (true, false) => drive(rec, out, pass_ns, || {
            Ok((
                ImpairedFrontEnd::new(sim, impairment).map_err(err)?,
                strategy,
                sc,
            ))
        }),
        (false, false) => drive(rec, out, pass_ns, || {
            let impaired = ImpairedFrontEnd::new(sim, impairment).map_err(err)?;
            Ok((
                FaultInjector::new(impaired, fault).map_err(err)?,
                strategy,
                sc,
            ))
        }),
    }
}

/// Sum of a telemetry stage over every wrapped link: (count, seconds).
pub fn stage_total(out: &Outcome, stage: Stage) -> (u64, f64) {
    let h = &out.stages[stage.index()];
    (h.count(), h.sum_ns() as f64 * 1e-9)
}

/// Link 0 of link workload `w` at `seed`, run through `SlotLoop` with or
/// without the timing wrapper. Returns the record and the allocator calls
/// counted during the steady phase (`mmwave_dsp::count_alloc`; always 0
/// unless the calling binary installs the counting allocator).
pub fn first_link(w: Workload, seed: u64, wrapped: bool) -> Result<(RunResult, u64), String> {
    let (mut sim, mut strategy, sc) = build_link(w, link_seed(seed, 0))?;
    let mut rec = Recorder::new(false);
    rec.reserve_ticks((sc.total_time_s() / sc.tick_period_s) as usize + 8);
    let mut timed;
    let strategy: &mut dyn BeamStrategy = if wrapped {
        timed = TimedStrategy::new(strategy.as_mut(), &mut rec);
        &mut timed
    } else {
        strategy.as_mut()
    };
    let mut sl = SlotLoop::new(
        &mut sim,
        strategy,
        sc.duration_s,
        sc.tick_period_s,
        sc.name,
        sc.warmup_s,
    );
    sl.advance_until(&mut sim, strategy, sc.warmup_s);
    let before = mmwave_dsp::count_alloc::allocation_count();
    sl.advance_until(&mut sim, strategy, f64::INFINITY);
    let allocs = mmwave_dsp::count_alloc::allocation_count() - before;
    Ok((sl.finish(&mut sim, strategy), allocs))
}

/// Member `ue` of fleet 0 of the fleet workload at `seed`: the digest of
/// its wrapped single-link replay and of the unwrapped run inside a
/// one-lane `FleetShard` (the fleet digest does not depend on sharding).
pub fn member_digests(seed: u64, ue: u32) -> Result<(u64, u64), String> {
    let cfg = fleet_config(seed, 0);
    let mut rec = Recorder::new(false);
    let mut out = Outcome::new();
    let replayed = replay_member(&cfg, ue, &mut rec, &mut out, &mut Vec::new())?
        .result
        .digest();
    let stepped = step_fleet(&cfg, &[ue], &mut rec, &mut out, &mut Vec::new())?;
    let (_, in_shard) = stepped.results.first().ok_or("empty shard")?;
    Ok((replayed, in_shard.digest()))
}
