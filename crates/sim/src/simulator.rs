//! The slot-level link simulator.
//!
//! [`LinkSimulator`] plays one strategy against one dynamic channel. It
//! implements [`LinkFrontEnd`], and — crucially — **probes advance
//! simulated time** by their reference-signal airtime. A maintenance tick
//! that issues three CSI-RS probes costs 0.375 ms of link downtime; a
//! reactive 12-SSB re-scan costs 6 ms during which the channel keeps
//! moving and no data flows. Reliability and throughput then fall out of a
//! single per-slot record with no separate bookkeeping.

use crate::faults::{FaultInjector, FaultSchedule};
use crate::impairments::{ImpairedFrontEnd, ImpairmentConfig};
use crate::metrics::{RunCounters, RunEvent, RunResult, Sample};
use crate::scenario::ScenarioError;
use mmreliable::cancel::CancelToken;
use mmreliable::frontend::{LinkFrontEnd, ProbeKind};
use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::weights::BeamWeights;
use mmwave_baselines::strategy::BeamStrategy;
use mmwave_channel::channel::{GeometricChannel, UeReceiver};
use mmwave_channel::dynamics::DynamicChannel;
use mmwave_channel::snapshot::ChannelSnapshot;
use mmwave_dsp::rng::Rng64;
use mmwave_dsp::units::{db_from_pow, mw_from_dbm, SPEED_OF_LIGHT};
use mmwave_hotpath::hot_path;
use mmwave_phy::chanest::{ChannelSounder, ProbeObservation};
use mmwave_phy::mcs::McsTable;

/// Reusable per-slot scratch owned by [`LinkSimulator`] — the single home
/// of every buffer the steady-state slot loop touches (DESIGN.md §8).
///
/// Holds the [`ChannelSnapshot`] (rebuilt at most once per simulated
/// instant) and the cached 33-point SNR evaluation comb with the metric's
/// link constants. After the buffers reach their high-water mark during
/// the first few slots, the data-plane slot loop performs no heap
/// allocation at all.
#[derive(Debug, Default)]
pub struct SlotWorkspace {
    /// The per-instant channel snapshot every reader shares.
    snapshot: ChannelSnapshot,
    /// Cached 33-point comb for [`LinkSimulator::true_snr_db`] (the grid
    /// is link-constant, so it is built once on first use).
    comb_freqs: Vec<f64>,
    /// Per-subcarrier TX power, mW: the sounder budget's TX power spread
    /// over the grid. Set with `comb_freqs`.
    per_sc_tx_mw: f64,
    /// The sounder's per-subcarrier noise power, mW. Set with `comb_freqs`.
    noise_mw: f64,
}

/// The simulator: channel + radio + clock.
pub struct LinkSimulator {
    /// The time-varying environment.
    pub dynamic: DynamicChannel,
    /// Sounding front end (budget, grid, impairments).
    pub sounder: ChannelSounder,
    /// gNB array.
    pub geom: ArrayGeometry,
    /// UE receive side.
    pub rx: UeReceiver,
    /// MCS table for throughput mapping.
    pub mcs: McsTable,
    /// Noise source.
    pub rng: Rng64,
    /// Outage threshold, dB.
    pub outage_snr_db: f64,
    /// Data-slot duration (sampling resolution), seconds.
    pub slot_s: f64,
    t_s: f64,
    probes: usize,
    probe_airtime_s: f64,
    ws: SlotWorkspace,
    counters: RunCounters,
    cancel: CancelToken,
    /// Telemetry handle: probe spans and (via the run loop) per-slot
    /// traces. Disabled (free) by default.
    #[cfg(feature = "telemetry")]
    tracer: mmwave_telemetry::Tracer,
}

impl LinkSimulator {
    /// Creates a simulator at t = 0.
    pub fn new(
        dynamic: DynamicChannel,
        sounder: ChannelSounder,
        geom: ArrayGeometry,
        rx: UeReceiver,
        rng: Rng64,
    ) -> Self {
        Self {
            dynamic,
            sounder,
            geom,
            rx,
            mcs: McsTable::nr_table(),
            rng,
            outage_snr_db: 6.0,
            slot_s: 0.125e-3,
            t_s: 0.0,
            probes: 0,
            probe_airtime_s: 0.0,
            ws: SlotWorkspace::default(),
            counters: RunCounters::default(),
            cancel: CancelToken::new(),
            #[cfg(feature = "telemetry")]
            tracer: mmwave_telemetry::Tracer::disabled(),
        }
    }

    /// Installs a telemetry tracer. The run loop clones it into the
    /// strategy (which forwards it to the controller and lifecycle), so
    /// one installation covers every layer of a run. Compiled to a no-op
    /// without the `telemetry` feature.
    pub fn set_tracer(&mut self, tracer: mmwave_telemetry::Tracer) {
        #[cfg(feature = "telemetry")]
        {
            self.tracer = tracer;
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = tracer;
    }

    /// The installed tracer (a cheap clone; disabled when none was
    /// installed or the `telemetry` feature is off).
    pub fn tracer(&self) -> mmwave_telemetry::Tracer {
        #[cfg(feature = "telemetry")]
        {
            self.tracer.clone()
        }
        #[cfg(not(feature = "telemetry"))]
        {
            mmwave_telemetry::Tracer::disabled()
        }
    }

    /// Deepest per-path blockage on the current workspace snapshot, dB —
    /// the run loop's blockage-severity telemetry. Reads the snapshot as
    /// is (no refresh): telemetry must never perturb the simulation's
    /// evaluation pattern.
    #[cfg(feature = "telemetry")]
    fn blockage_severity_db(&self) -> f64 {
        self.ws
            .snapshot
            .channel()
            .paths
            .iter()
            .map(|p| p.blockage_db)
            .fold(0.0, f64::max)
    }

    /// Current simulated time, seconds.
    pub fn now_s(&self) -> f64 {
        self.t_s
    }

    /// Installs the supervisor's cancellation token. The run loop and the
    /// controller poll it at their checkpoints (once per data slot, per
    /// maintenance tick, per training probe); a fresh simulator carries an
    /// inert token and never cancels.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// Hot-path counters accumulated so far (all-zero unless the
    /// `perf-counters` feature is enabled). The run loop resets them at
    /// the start of every run and copies them into the returned
    /// [`RunResult`].
    pub fn counters(&self) -> &RunCounters {
        &self.counters
    }

    /// Ensures the workspace snapshot is valid at the current clock,
    /// rebuilding it only when simulated time has advanced since the last
    /// read (the invalidation rule of DESIGN.md §8). Every consumer of the
    /// current channel — SNR metric, sounder, truth observer — goes
    /// through here, so the environment is evaluated at most once per
    /// simulated instant.
    #[hot_path]
    pub fn refresh_snapshot(&mut self) {
        if self.ws.snapshot.is_valid_at(self.t_s) {
            #[cfg(feature = "perf-counters")]
            {
                self.counters.snapshot_reuses += 1;
            }
            return;
        }
        self.ws
            .snapshot
            .rebuild(&self.dynamic, &self.geom, &self.rx, self.t_s);
        #[cfg(feature = "perf-counters")]
        {
            self.counters.snapshot_rebuilds += 1;
        }
    }

    /// The frozen channel at the current clock, served from the workspace
    /// snapshot (refreshed if needed) — the allocation-free replacement
    /// for `dynamic.channel_at(now)`.
    pub fn channel_now(&mut self) -> &GeometricChannel {
        self.refresh_snapshot();
        self.ws.snapshot.channel()
    }

    /// Noiseless wideband SNR (dB) the link would see right now under
    /// `weights` — the data-plane quality the MCS adapts to. The signal
    /// power is the mean `|y(f)|²` over a 33-point comb spanning the
    /// occupied band (it captures the frequency selectivity of §3.4),
    /// computed in closed form from the path pairs by
    /// [`ChannelSnapshot::band_power`] rather than by synthesising the
    /// comb. Takes `&mut self` because it reads the channel through the
    /// workspace snapshot, refreshing it if simulated time has advanced.
    /// The sounder's grid, TX power and noise floor are link constants:
    /// they are read on the first call and cached in the workspace.
    #[hot_path]
    pub fn true_snr_db(&mut self, weights: &BeamWeights) -> f64 {
        self.refresh_snapshot();
        #[cfg(feature = "perf-counters")]
        {
            self.counters.snr_evals += 1;
        }
        if self.ws.snapshot.channel().paths.is_empty() {
            return -60.0;
        }
        if self.ws.comb_freqs.is_empty() {
            let half = self.sounder.grid.occupied_bw_hz() / 2.0;
            self.ws
                .comb_freqs
                .extend((0..33).map(|i| -half + 2.0 * half * i as f64 / 32.0));
            // Same scaling as the sounder: TX power spread across
            // subcarriers against per-subcarrier noise.
            let tx_mw = mw_from_dbm(self.sounder.budget.tx_power_dbm);
            self.ws.per_sc_tx_mw = tx_mw / self.sounder.grid.n_subcarriers as f64;
            self.ws.noise_mw = self.sounder.noise_power_mw();
        }
        let mean_pow = self.ws.snapshot.band_power(weights, &self.ws.comb_freqs);
        let per_sc = self.ws.per_sc_tx_mw;
        let dist_m = self
            .ws
            .snapshot
            .channel()
            .paths
            .iter()
            .map(|p| p.tof_ns)
            .fold(f64::INFINITY, f64::min)
            * 1e-9
            * SPEED_OF_LIGHT;
        let atmo =
            mmwave_dsp::units::pow_from_db(-self.sounder.budget.atmospheric_absorption_db(dist_m));
        db_from_pow((mean_pow * per_sc * atmo / self.ws.noise_mw).max(1e-6)).max(-60.0)
    }
}

/// A front-end stack the run loop can drive: the bare simulator, or any
/// chain of decorators (e.g. [`crate::faults::FaultInjector`]) bottoming
/// out in one. Decorators forward [`SimFrontEnd::sim`] and may transform
/// the data-plane weights and contribute events.
pub trait SimFrontEnd: LinkFrontEnd {
    /// Plays `strategy` for `duration_s`, giving it a maintenance tick
    /// every `tick_period_s` (the CSI-RS cadence). Returns the full run
    /// record.
    fn run(
        &mut self,
        strategy: &mut dyn BeamStrategy,
        duration_s: f64,
        tick_period_s: f64,
        scenario_name: &str,
    ) -> RunResult
    where
        Self: Sized,
    {
        run_front_end(
            self,
            strategy,
            duration_s,
            tick_period_s,
            scenario_name,
            0.0,
        )
    }

    /// Like [`SimFrontEnd::run`], but runs an unmeasured warm-up window
    /// first (initial beam training happens there, per the paper's
    /// protocol). The returned record covers warm-up + measurement; its
    /// metrics ignore the warm-up.
    fn run_with_warmup(
        &mut self,
        strategy: &mut dyn BeamStrategy,
        duration_s: f64,
        tick_period_s: f64,
        scenario_name: &str,
        warmup_s: f64,
    ) -> RunResult
    where
        Self: Sized,
    {
        run_front_end(
            self,
            strategy,
            duration_s,
            tick_period_s,
            scenario_name,
            warmup_s,
        )
    }

    /// The simulator at the bottom of the stack.
    fn sim(&self) -> &LinkSimulator;

    /// The simulator at the bottom of the stack, mutably.
    fn sim_mut(&mut self) -> &mut LinkSimulator;

    /// Overwrites `out` with the weights the array actually radiates for
    /// `w` in *data* slots, reusing its allocation — the run loop's
    /// per-slot entry point. Hardware faults and impairments hit the data
    /// plane exactly as they hit probing.
    fn radiated_weights_into(&mut self, w: &BeamWeights, out: &mut BeamWeights) {
        out.copy_from(w);
        self.apply_radiated_faults(out);
    }

    /// In-place hardware transform behind
    /// [`SimFrontEnd::radiated_weights_into`]. Decorators apply their own
    /// element faults or transmit-chain impairments to `w`, then forward
    /// down the stack; the bare simulator radiates weights unchanged (the
    /// default no-op).
    fn apply_radiated_faults(&mut self, _w: &mut BeamWeights) {}

    /// Appends the events this stack recorded since the last drain to
    /// `out`. Each decorator appends its own events, then drains its inner
    /// layer, so an outer layer's events come first; the bare simulator
    /// records none (the default no-op).
    fn drain_events_into(&mut self, _out: &mut Vec<RunEvent>) {}
}

impl SimFrontEnd for LinkSimulator {
    fn sim(&self) -> &LinkSimulator {
        self
    }

    fn sim_mut(&mut self) -> &mut LinkSimulator {
        self
    }
}

/// The one front-end stack every link runs through: faults over
/// impairments over the simulator. An inert fault schedule or impairment
/// configuration leaves its layer transparent — bit-identical to the bare
/// simulator, with no RNG drawn — so a clean link needs no other type.
pub type FrontEndStack = FaultInjector<ImpairedFrontEnd<LinkSimulator>>;

/// Wraps `sim` in the stack's two layers, failing fast on an invalid
/// schedule or configuration. This is the only code that knows the nesting
/// order: impairments sit nearest the hardware, faults wrap them so a
/// probe-loss window suppresses the impaired observation wholesale. Under
/// a gain drift the impairment layer runs without its data-plane weight
/// memo, which could never hit.
pub fn front_end_stack(
    sim: LinkSimulator,
    fault: FaultSchedule,
    impairment: ImpairmentConfig,
) -> Result<FrontEndStack, ScenarioError> {
    let mut impaired = ImpairedFrontEnd::new(sim, impairment)?;
    if fault.gain_drift_db > 0.0 {
        impaired.drop_weight_memo();
    }
    FaultInjector::new(impaired, fault)
}

/// The run loop as an explicit, resumable state machine.
///
/// [`run_front_end`] drives it to completion in one call — the single-link
/// path. The fleet scheduler instead interleaves many UEs by stepping each
/// one's `SlotLoop` to the next handler-pass boundary with
/// [`SlotLoop::advance_until`]: per-UE state (samples, events, weight
/// scratch, tick phase) lives here, so a paused UE resumes exactly where
/// it stopped and executes the identical iteration sequence a single
/// uninterrupted run would — stepping is control-flow slicing, never an
/// arithmetic change, which is what keeps a fleet of size 1 bit-identical
/// to the pre-fleet pipeline.
pub struct SlotLoop {
    /// Total simulated span: warm-up + measured window, seconds.
    total_s: f64,
    tick_period_s: f64,
    warmup_s: f64,
    slot_s: f64,
    scenario_name: String,
    samples: Vec<Sample>,
    events: Vec<RunEvent>,
    // Per-slot weight scratch: allocated once at construction, reused
    // every slot.
    w_data: BeamWeights,
    w_rad: BeamWeights,
    next_tick: f64,
    done: bool,
    #[cfg(feature = "telemetry")]
    tracer: mmwave_telemetry::Tracer,
    #[cfg(feature = "telemetry")]
    slot_idx: u64,
}

impl SlotLoop {
    /// Prepares a run over `h` × `strategy`: resets the front end's
    /// counters, installs the tracer across the strategy stack, and
    /// allocates the per-run buffers at their high-water capacity.
    pub fn new<H: SimFrontEnd>(
        h: &mut H,
        strategy: &mut dyn BeamStrategy,
        duration_s: f64,
        tick_period_s: f64,
        scenario_name: &str,
        warmup_s: f64,
    ) -> Self {
        assert!(duration_s > 0.0 && tick_period_s > 0.0 && warmup_s >= 0.0);
        let total_s = warmup_s + duration_s;
        let slot_s = h.sim().slot_s;
        h.sim_mut().counters = RunCounters::default();
        // One tracer covers every layer: clear its histograms for this run
        // and hand it to the strategy (which forwards it to the controller
        // and lifecycle machine).
        #[cfg(feature = "telemetry")]
        let tracer = {
            let tracer = h.sim().tracer();
            tracer.reset();
            strategy.set_tracer(tracer.clone());
            tracer
        };
        #[cfg(not(feature = "telemetry"))]
        let _ = &strategy;
        let samples = Vec::with_capacity(
            (total_s / slot_s) as usize + (total_s / tick_period_s) as usize + 16,
        );
        let n_elements = h.sim().geom.num_elements();
        Self {
            total_s,
            tick_period_s,
            warmup_s,
            slot_s,
            scenario_name: scenario_name.to_string(),
            samples,
            events: Vec::new(),
            w_data: BeamWeights::muted(n_elements),
            w_rad: BeamWeights::muted(n_elements),
            next_tick: 0.0,
            done: true, // set false below; placates the uninit lint
            #[cfg(feature = "telemetry")]
            tracer,
            #[cfg(feature = "telemetry")]
            slot_idx: 0,
        }
        .started()
    }

    fn started(mut self) -> Self {
        self.done = false;
        self
    }

    /// Samples recorded so far (the fleet's intent derivation reads the
    /// tail of this between passes).
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Runs loop iterations until simulated time reaches `t_end_s` (or the
    /// run's end, whichever is first) and reports whether the run is done.
    /// Passing `f64::INFINITY` runs to completion. Iterations are executed
    /// in exactly the order an uninterrupted run would execute them.
    #[hot_path]
    pub fn advance_until<H: SimFrontEnd>(
        &mut self,
        h: &mut H,
        strategy: &mut dyn BeamStrategy,
        t_end_s: f64,
    ) -> bool {
        while !self.done && h.sim().t_s < self.total_s && h.sim().t_s < t_end_s {
            // Supervisor checkpoint: a cancelled run (deadline or tick
            // budget) unwinds here with the CancelUnwind payload rather
            // than finishing the sweep — the campaign layer classifies
            // that as a timeout.
            h.sim().cancel.checkpoint();
            // Maintenance tick: the strategy may probe (advancing time).
            if h.sim().t_s >= self.next_tick {
                h.sim().cancel.note_tick();
                strategy.observe_truth(h.sim_mut().channel_now());
                #[cfg(feature = "perf-counters")]
                {
                    h.sim_mut().counters.ticks += 1;
                }
                let t0 = h.sim().t_s;
                #[cfg(feature = "telemetry")]
                let clock = self.tracer.begin();
                strategy.on_tick(h, t0);
                #[cfg(feature = "telemetry")]
                self.tracer
                    .end(clock, mmwave_telemetry::Stage::TickCompute, t0);
                self.events.extend(
                    strategy
                        .drain_transitions()
                        .into_iter()
                        .map(RunEvent::Transition),
                );
                h.drain_events_into(&mut self.events);
                if h.sim().t_s > t0 {
                    self.samples.push(Sample {
                        t_s: t0,
                        dur_s: h.sim().t_s - t0,
                        snr_db: f64::NAN,
                        probing: true,
                    });
                    #[cfg(feature = "telemetry")]
                    self.tracer.slot(mmwave_telemetry::SlotTrace {
                        slot: self.slot_idx,
                        t_s: t0,
                        snr_db: f64::NAN,
                        blockage_db: h.sim().blockage_severity_db(),
                        probing: true,
                        outage: false,
                    });
                }
                while self.next_tick <= h.sim().t_s {
                    self.next_tick += self.tick_period_s;
                }
                // A retrain scan can probe past the end of the run (heavy
                // retraining under faults/impairments): there is no data
                // slot left to radiate, and emitting one would record a
                // non-positive interval.
                if h.sim().t_s >= self.total_s {
                    self.done = true;
                    break;
                }
            }
            // Data slot under the strategy's current weights (as actually
            // radiated by the possibly-faulted hardware). The snapshot
            // behind `channel_now` stays valid through the whole slot —
            // the truth observer, fault layer, and SNR metric all read the
            // same frozen channel without re-evaluating the environment.
            #[cfg(feature = "telemetry")]
            let clock = self.tracer.begin();
            strategy.observe_truth(h.sim_mut().channel_now());
            strategy.weights_into(&mut self.w_data);
            h.radiated_weights_into(&self.w_data, &mut self.w_rad);
            let snr = h.sim_mut().true_snr_db(&self.w_rad);
            #[cfg(feature = "telemetry")]
            self.tracer
                .end(clock, mmwave_telemetry::Stage::DataSlot, h.sim().t_s);
            #[cfg(feature = "perf-counters")]
            {
                h.sim_mut().counters.data_slots += 1;
            }
            let t_s = h.sim().t_s;
            let dur = self
                .slot_s
                .min(self.total_s - t_s)
                .min((self.next_tick - t_s).max(1e-9));
            self.samples.push(Sample {
                t_s,
                dur_s: dur,
                snr_db: snr,
                probing: false,
            });
            #[cfg(feature = "telemetry")]
            {
                self.tracer.slot(mmwave_telemetry::SlotTrace {
                    slot: self.slot_idx,
                    t_s,
                    snr_db: snr,
                    blockage_db: h.sim().blockage_severity_db(),
                    probing: false,
                    outage: snr < h.sim().outage_snr_db,
                });
                self.slot_idx += 1;
            }
            h.sim_mut().t_s += dur;
        }
        if h.sim().t_s >= self.total_s {
            self.done = true;
        }
        self.done
    }

    /// Final drains and record assembly. Valid at any point (the campaign
    /// layer's cancellation unwinds instead of finishing), but the normal
    /// caller steps the loop to completion first.
    pub fn finish<H: SimFrontEnd>(
        mut self,
        h: &mut H,
        strategy: &mut dyn BeamStrategy,
    ) -> RunResult {
        self.events.extend(
            strategy
                .drain_transitions()
                .into_iter()
                .map(RunEvent::Transition),
        );
        h.drain_events_into(&mut self.events);
        let sim = h.sim();
        RunResult {
            strategy: strategy.name().to_string(),
            scenario: self.scenario_name,
            samples: self.samples,
            bandwidth_hz: sim.sounder.grid.occupied_bw_hz(),
            outage_snr_db: sim.outage_snr_db,
            probes: sim.probes,
            probe_airtime_s: sim.probe_airtime_s,
            measure_from_s: self.warmup_s,
            events: self.events,
            counters: sim.counters,
            #[cfg(feature = "telemetry")]
            latency: sim.tracer.latency(),
            #[cfg(not(feature = "telemetry"))]
            latency: mmwave_telemetry::RunLatency::default(),
        }
    }
}

/// The run loop, generic over the front-end stack: plays `strategy` for
/// `warmup_s + duration_s`, ticking it every `tick_period_s`, recording
/// per-slot samples plus every lifecycle transition and injected fault
/// into the returned [`RunResult`]. A thin driver over [`SlotLoop`].
pub fn run_front_end<H: SimFrontEnd>(
    h: &mut H,
    strategy: &mut dyn BeamStrategy,
    duration_s: f64,
    tick_period_s: f64,
    scenario_name: &str,
    warmup_s: f64,
) -> RunResult {
    let mut sl = SlotLoop::new(
        h,
        strategy,
        duration_s,
        tick_period_s,
        scenario_name,
        warmup_s,
    );
    sl.advance_until(h, strategy, f64::INFINITY);
    sl.finish(h, strategy)
}

impl LinkFrontEnd for LinkSimulator {
    fn geometry(&self) -> &ArrayGeometry {
        &self.geom
    }

    fn probe_kind_into(
        &mut self,
        weights: &BeamWeights,
        kind: ProbeKind,
        out: &mut ProbeObservation,
    ) {
        #[cfg(feature = "telemetry")]
        let clock = self.tracer.begin();
        self.refresh_snapshot();
        self.sounder
            .probe_snapshot_into(&mut self.ws.snapshot, weights, &mut self.rng, out);
        self.t_s += kind.airtime_s();
        self.probes += 1;
        self.probe_airtime_s += kind.airtime_s();
        #[cfg(feature = "telemetry")]
        {
            self.tracer
                .end(clock, mmwave_telemetry::Stage::ProbeHandling, self.t_s);
            if self.tracer.wants_events() {
                self.tracer.event(mmwave_telemetry::TraceEvent::Probe {
                    t_s: self.t_s,
                    kind: match kind {
                        ProbeKind::Ssb => "ssb",
                        ProbeKind::CsiRs => "csi-rs",
                    },
                    snr_db: out.snr_db(),
                });
            }
        }
    }

    fn wait(&mut self, dur_s: f64) {
        let d = dur_s.max(0.0);
        self.t_s += d;
        self.probe_airtime_s += d;
    }

    fn now_s(&self) -> f64 {
        self.t_s
    }

    fn cancel_requested(&self) -> bool {
        self.cancel.is_cancelled()
    }

    fn probes_used(&self) -> usize {
        self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmreliable::config::MmReliableConfig;
    use mmreliable::controller::MmReliableController;
    use mmwave_baselines::strategy::MmReliableStrategy;
    use mmwave_baselines::{OracleMrt, SingleBeamReactive};
    use mmwave_channel::blockage::BlockageProcess;
    use mmwave_channel::environment::Scene;
    use mmwave_channel::geom2d::v2;
    use mmwave_channel::mobility::{Pose, Trajectory};
    use mmwave_dsp::units::FC_28GHZ;

    fn static_sim(seed: u64) -> LinkSimulator {
        let dynamic = DynamicChannel::new(
            Scene::conference_room(FC_28GHZ),
            Trajectory::Static {
                pose: Pose {
                    pos: v2(0.9, 7.0),
                    facing_deg: 180.0,
                },
            },
            BlockageProcess::none(),
        );
        LinkSimulator::new(
            dynamic,
            ChannelSounder::paper_indoor(),
            ArrayGeometry::paper_8x8(),
            UeReceiver::Omni,
            Rng64::seed(seed),
        )
    }

    #[test]
    fn probes_advance_time() {
        let mut sim = static_sim(1);
        let w = mmwave_array::steering::single_beam(&sim.geom, 0.0);
        assert_eq!(sim.now_s(), 0.0);
        sim.probe_kind(&w, ProbeKind::Ssb);
        assert!((sim.now_s() - 0.5e-3).abs() < 1e-12);
        sim.probe(&w);
        assert!((sim.now_s() - 0.625e-3).abs() < 1e-12);
        assert_eq!(sim.probes_used(), 2);
    }

    #[test]
    fn static_run_with_mmreliable_is_reliable() {
        let mut sim = static_sim(2);
        let mut s =
            MmReliableStrategy::new(MmReliableController::new(MmReliableConfig::paper_default()));
        let r = sim.run(&mut s, 0.3, 20e-3, "static");
        // Establishment costs ~33 ms of the 300 ms run; everything after
        // must be up.
        assert!(r.reliability() > 0.85, "reliability {}", r.reliability());
        assert!(r.mean_snr_db() > 20.0, "snr {}", r.mean_snr_db());
        assert!(r.probes > 64);
    }

    #[test]
    fn run_duration_accounts_everything() {
        let mut sim = static_sim(3);
        let mut s = SingleBeamReactive::new(Default::default());
        let r = sim.run(&mut s, 0.2, 20e-3, "static");
        assert!(
            (r.duration_s() - 0.2).abs() < 2e-3,
            "dur {}",
            r.duration_s()
        );
        // Probing samples exist (initial scan).
        assert!(r.samples.iter().any(|s| s.probing));
        assert!(r.probing_overhead() > 0.0);
    }

    #[test]
    fn oracle_needs_no_probes_and_wins() {
        let mut sim = static_sim(4);
        let mut oracle = OracleMrt::ideal(ArrayGeometry::paper_8x8(), UeReceiver::Omni);
        let r_oracle = sim.run(&mut oracle, 0.1, 20e-3, "static");
        assert_eq!(r_oracle.probes, 0);
        assert_eq!(r_oracle.reliability(), 1.0);
        let mut sim2 = static_sim(4);
        let mut reactive = SingleBeamReactive::new(Default::default());
        let r_re = sim2.run(&mut reactive, 0.1, 20e-3, "static");
        assert!(r_oracle.mean_snr_db() >= r_re.mean_snr_db() - 0.2);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = static_sim(seed);
            let mut s = SingleBeamReactive::new(Default::default());
            let r = sim.run(&mut s, 0.1, 20e-3, "static");
            (r.reliability(), r.mean_snr_db(), r.probes)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn true_snr_matches_probe_snr() {
        let mut sim = static_sim(5);
        let w = mmwave_array::steering::single_beam(&sim.geom, 7.3);
        let true_snr = sim.true_snr_db(&w);
        let obs = sim.probe(&w);
        assert!(
            (true_snr - obs.snr_db()).abs() < 1.5,
            "true {true_snr} vs probed {}",
            obs.snr_db()
        );
    }
}
