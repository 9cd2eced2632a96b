//! The mmReliable beam-maintenance controller (paper Fig. 9).
//!
//! One controller instance owns the gNB-side beam state. Its life cycle:
//!
//! 1. **Establish** — exhaustive beam training (SSB scan) finds the viable
//!    path directions; the two-probe estimator supplies each extra beam's
//!    `(δ, σ)`; the constructive multi-beam goes live and per-beam
//!    baselines are recorded.
//! 2. **Maintain** — every CSI-RS tick: one probe through the multi-beam,
//!    super-resolution recovers per-beam powers, each beam's change is
//!    classified (stable / mobility / blockage):
//!    * *mobility* → invert the beam pattern for `|Δθ|`, resolve the sign
//!      with one hypothesis probe, realign, refresh `(δ, σ)`;
//!    * *blockage* → zero that component (its power re-purposes to the
//!      survivors through TRP renormalization) and re-probe it
//!      periodically for recovery.
//! 3. **Re-train** — when the link degrades beyond what maintenance can
//!    explain, fall back to a full training scan.
//!
//! The establish / maintain / re-train life cycle is governed by the
//! explicit [`LinkLifecycle`] state machine ([`crate::linkstate`]): every
//! state change goes through its single transition function, re-training
//! runs with bounded attempts and exponential backoff instead of
//! hot-looping SSB scans, and an episode that exhausts its retry budget
//! escalates to a **wide-beam degraded fallback** that keeps serving what
//! it can until conditions visibly improve.

use crate::blockage::{BeamEvent, BlockageDetector};
use crate::config::MmReliableConfig;
use crate::frontend::LinkFrontEnd;
use crate::linkstate::{LinkLifecycle, LinkSignal, LinkState, Transition};
use crate::probing::two_probe_relative;
use crate::superres::{estimate_per_beam_with, SuperResConfig, SuperResScratch};
use crate::tracking::BeamTracker;
use crate::training::{beam_training, TrainingResult};
use mmwave_array::codebook::Codebook;
use mmwave_array::multibeam::{BeamComponent, MultiBeam};
use mmwave_array::pattern::hpbw_deg;
use mmwave_array::steering::{single_beam, wide_beam};
use mmwave_array::weights::BeamWeights;
use mmwave_dsp::units::db_from_pow;

/// Columns kept active in the wide-beam degraded fallback (of the 8-column
/// paper array): half the aperture ≈ twice the beamwidth.
const FALLBACK_ACTIVE_COLUMNS: usize = 4;

/// One-word summary of a round's actions for the telemetry `round` event,
/// most-drastic action first.
#[cfg(feature = "telemetry")]
fn round_verdict(actions: &[ControllerAction]) -> &'static str {
    let mut verdict = "steady";
    for a in actions {
        verdict = match a {
            ControllerAction::Retrained => return "retrain",
            ControllerAction::Established(_) => "establish",
            ControllerAction::BeamBlocked(_) => "blockage",
            ControllerAction::BeamRecovered(_) if verdict == "steady" => "recovery",
            ControllerAction::Realigned { .. } if verdict == "steady" => "realign",
            _ => verdict,
        };
    }
    verdict
}

/// Reports at or below this SNR carry no measured signal at all — the
/// observation is indistinguishable from a lost/erased probe, so it is not
/// treated as evidence for an *urgent* (same-round) re-train. The probe
/// floor is −60 dB; real deep fades (30+ dB of blockage on a ~25 dB link)
/// still measure far above this.
const ERASURE_FLOOR_DB: f64 = -55.0;

/// Something the controller did during a round.
#[derive(Clone, Debug, PartialEq)]
pub enum ControllerAction {
    /// A multi-beam went live on these angles (degrees).
    Established(Vec<f64>),
    /// Beam `idx` was realigned from → to degrees.
    Realigned {
        /// Component index.
        idx: usize,
        /// Previous steering angle.
        from_deg: f64,
        /// New steering angle.
        to_deg: f64,
    },
    /// Beam `idx` was declared blocked; its power re-purposed.
    BeamBlocked(usize),
    /// Beam `idx` recovered and was readmitted.
    BeamRecovered(usize),
    /// Full re-training was triggered.
    Retrained,
}

/// Outcome of one maintenance round.
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// Wideband SNR measured on the data beam this round, dB.
    pub snr_db: f64,
    /// Per-beam powers from super-resolution, dB (empty before establish).
    pub per_beam_db: Vec<f64>,
    /// Actions taken.
    pub actions: Vec<ControllerAction>,
    /// Probes consumed this round.
    pub probes: usize,
    /// Lifecycle state after the round.
    pub state: LinkState,
    /// Lifecycle transitions that fired during the round.
    pub transitions: Vec<Transition>,
}

/// The mmReliable gNB controller.
pub struct MmReliableController {
    cfg: MmReliableConfig,
    superres_cfg: SuperResConfig,
    /// Buffers of the per-beam fit, reused across maintenance rounds.
    superres_scratch: SuperResScratch,
    mb: Option<MultiBeam>,
    rel_delays_ns: Vec<f64>,
    trackers: Vec<BeamTracker>,
    detectors: Vec<BlockageDetector>,
    /// Saved component amplitude of blocked beams (for restoration).
    saved_amp: Vec<f64>,
    rounds: usize,
    last_training: Option<TrainingResult>,
    /// Wideband SNR right after establishment (the healthy reference).
    established_snr_db: Option<f64>,
    /// Best establishment SNR seen so far — the long-term health reference.
    /// A re-training that runs *during* a blockage storm establishes a
    /// degraded link; judging "degraded" against this value (decayed when
    /// re-trainings keep landing low) lets the controller rediscover the
    /// good paths once the storm passes without re-training forever in a
    /// genuinely worse environment.
    best_snr_db: f64,
    /// The lifecycle state machine — the sole owner of link state.
    lifecycle: LinkLifecycle,
    /// Telemetry handle: super-resolution fit spans and per-round link
    /// events. Disabled (free) by default.
    #[cfg(feature = "telemetry")]
    tracer: mmwave_telemetry::Tracer,
}

impl MmReliableController {
    /// Creates a controller; no link is established yet.
    pub fn new(cfg: MmReliableConfig) -> Self {
        cfg.validate().expect("invalid configuration");
        // The lifecycle's outage threshold mirrors the controller's decode
        // threshold — one source of truth.
        let mut lc_cfg = cfg.lifecycle;
        lc_cfg.outage_snr_db = cfg.outage_snr_db;
        Self {
            cfg,
            superres_cfg: SuperResConfig::default(),
            superres_scratch: SuperResScratch::default(),
            mb: None,
            rel_delays_ns: Vec::new(),
            trackers: Vec::new(),
            detectors: Vec::new(),
            saved_amp: Vec::new(),
            rounds: 0,
            last_training: None,
            established_snr_db: None,
            best_snr_db: f64::NEG_INFINITY,
            lifecycle: LinkLifecycle::new(lc_cfg),
            #[cfg(feature = "telemetry")]
            tracer: mmwave_telemetry::Tracer::disabled(),
        }
    }

    /// Installs a telemetry tracer on the controller and its lifecycle
    /// machine. Compiled to a no-op without the `telemetry` feature.
    pub fn set_tracer(&mut self, tracer: mmwave_telemetry::Tracer) {
        #[cfg(feature = "telemetry")]
        {
            self.lifecycle.set_tracer(tracer.clone());
            self.tracer = tracer;
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = tracer;
    }

    /// Super-resolution per-beam fit, wrapped in a telemetry span so the
    /// fit's latency lands in the `superres-fit` histogram.
    fn fit_per_beam(
        &mut self,
        obs: &mmwave_phy::chanest::ProbeObservation,
        t_s: f64,
    ) -> crate::superres::PerBeamEstimate {
        #[cfg(not(feature = "telemetry"))]
        let _ = t_s;
        #[cfg(feature = "telemetry")]
        let clock = self.tracer.begin();
        let est = estimate_per_beam_with(
            &mut self.superres_scratch,
            obs,
            &self.rel_delays_ns,
            &self.superres_cfg,
        );
        #[cfg(feature = "telemetry")]
        self.tracer
            .end(clock, mmwave_telemetry::Stage::SuperresFit, t_s);
        est
    }

    /// Configuration accessor.
    pub fn config(&self) -> &MmReliableConfig {
        &self.cfg
    }

    /// The lifecycle state machine (read-only).
    pub fn lifecycle(&self) -> &LinkLifecycle {
        &self.lifecycle
    }

    /// Current lifecycle state.
    pub fn link_state(&self) -> LinkState {
        self.lifecycle.state()
    }

    /// Takes the lifecycle transitions accumulated since the last drain.
    pub fn drain_transitions(&mut self) -> Vec<Transition> {
        self.lifecycle.drain_log()
    }

    /// The current multi-beam, if established.
    pub fn multibeam(&self) -> Option<&MultiBeam> {
        self.mb.as_ref()
    }

    /// The most recent training scan (profile + viable paths).
    pub fn last_training(&self) -> Option<&TrainingResult> {
        self.last_training.as_ref()
    }

    /// Hardware-quantized weights currently used for data transmission.
    /// Falls back to a broadside single beam before establishment, and to a
    /// wide beam at the best-known direction when the lifecycle's retry
    /// budget is exhausted (degraded fallback: coverage over gain).
    pub fn current_weights(&self) -> BeamWeights {
        let ideal = if self.lifecycle.fallback_active() {
            wide_beam(
                &self.cfg.geom,
                self.fallback_angle_deg(),
                FALLBACK_ACTIVE_COLUMNS,
            )
        } else {
            match &self.mb {
                Some(mb) => mb.weights(&self.cfg.geom),
                None => single_beam(&self.cfg.geom, 0.0),
            }
        };
        self.cfg.quantizer.quantize(&ideal)
    }

    /// The best-known link direction for the wide-beam fallback: the
    /// strongest still-active multi-beam component (or the reference beam
    /// when everything is muted; broadside with no link history).
    fn fallback_angle_deg(&self) -> f64 {
        let Some(mb) = &self.mb else { return 0.0 };
        mb.components()
            .iter()
            .filter(|c| c.amplitude > 0.0)
            .max_by(|a, b| a.amplitude.total_cmp(&b.amplitude))
            .map(|c| c.angle_deg)
            .unwrap_or_else(|| mb.component(0).angle_deg)
    }

    /// Runs beam training + constructive multi-beam establishment and
    /// reports the outcome to the lifecycle machine.
    /// Returns the actions taken (empty if no path was found).
    // xtask-allow(hot-path-closure): link (re)establishment builds its codebook, scan buffers, and action list once per acquisition event — an exceptional-path cost, not a per-slot one (ROADMAP item 1)
    // xtask-allow(hot-path-panic): scan/component indices are bounded by the codebook and component counts fixed at the top of the function
    pub fn establish(&mut self, fe: &mut dyn LinkFrontEnd) -> Vec<ControllerAction> {
        let geom = self.cfg.geom;
        let codebook =
            Codebook::uniform(&geom, self.cfg.training_beams, self.cfg.training_span_deg);
        let min_sep = 0.8 * hpbw_deg(&geom, 0.0);
        let training = beam_training(
            fe,
            &codebook,
            self.cfg.max_beams,
            self.cfg.viable_window_db,
            min_sep,
        );
        if training.viable.is_empty() {
            self.last_training = Some(training);
            // A failed *re*-train keeps the previous multi-beam (best
            // effort beats silence); a failed initial scan leaves none.
            self.lifecycle.apply(
                LinkSignal::EstablishResult {
                    ok: false,
                    snr_db: f64::NEG_INFINITY,
                },
                fe.now_s(),
            );
            return Vec::new();
        }
        let reference = training.viable[0];
        let mut components = vec![BeamComponent::reference(reference.angle_deg)];
        let mut rel_delays = vec![0.0];
        for v in training.viable.iter().skip(1) {
            let rel = two_probe_relative(
                fe,
                reference.angle_deg,
                v.angle_deg,
                &[reference.power_mw],
                &[v.power_mw],
                v.delay_ns - reference.delay_ns,
            );
            let (delta, sigma) = if self.cfg.enable_constructive {
                (rel.delta.clamp(0.0, 1.5), rel.sigma_rad)
            } else {
                // Ablation: blind equal split, no phase alignment.
                (1.0, 0.0)
            };
            components.push(BeamComponent::new(v.angle_deg, delta, sigma));
            rel_delays.push(v.delay_ns - reference.delay_ns);
        }
        let mb = MultiBeam::new(components);
        let angles = mb.angles_deg();
        self.mb = Some(mb);
        self.rel_delays_ns = rel_delays;
        self.last_training = Some(training);
        // Baseline probe through the live multi-beam.
        let obs = fe.probe(&self.current_weights());
        let est = self.fit_per_beam(&obs, fe.now_s());
        let baselines = est.powers_db();
        self.trackers = angles
            .iter()
            .zip(&baselines)
            .map(|(&a, &b)| BeamTracker::new(a, b, self.cfg.power_ewma_alpha, 8))
            .collect();
        self.detectors = (0..angles.len())
            .map(|_| {
                BlockageDetector::new(self.cfg.blockage_rate_db, 1.5, self.cfg.recovery_margin_db)
            })
            .collect();
        self.saved_amp = vec![0.0; angles.len()];
        self.rounds = 0;
        let snr_db = obs.snr_db();
        self.established_snr_db = Some(snr_db);
        if snr_db > self.best_snr_db {
            self.best_snr_db = snr_db;
        } else if snr_db < self.best_snr_db - self.cfg.lifecycle.degraded_drop_db {
            // Re-trainings keep landing well below the old best: the
            // environment got genuinely worse. Decay the reference so the
            // lifecycle converges instead of scheduling re-trains forever.
            self.best_snr_db = snr_db.max(self.best_snr_db - 6.0);
        }
        // A scan that lands below the decode threshold did not recover the
        // link: count it against the episode's retry budget (the fresh
        // multi-beam stays — best effort — but the state machine keeps
        // backing off).
        let ok = snr_db >= self.cfg.outage_snr_db;
        self.lifecycle
            .apply(LinkSignal::EstablishResult { ok, snr_db }, fe.now_s());
        vec![ControllerAction::Established(angles)]
    }

    /// One CSI-RS maintenance tick, dispatched on the lifecycle state:
    /// acquisition scans are paced by backoff, the degraded fallback runs a
    /// minimal keep-alive loop, and the normal maintenance path feeds its
    /// measurement to the state machine which schedules bounded re-trains.
    // xtask-allow(hot-path-closure): the maintenance round runs every csi_rs_period slots, not per slot; its report/action buffers are per-round by design (ROADMAP item 1 tracks moving them into a scratch struct)
    // xtask-allow(hot-path-panic): per-beam indices are bounded by the component count of the established multi-beam; the expects state lifecycle invariants (established implies mb is Some)
    pub fn maintenance_round(&mut self, fe: &mut dyn LinkFrontEnd) -> RoundReport {
        // Cooperative cancellation point: a supervisor that has given up on
        // this run (deadline, tick budget) stops the maintenance loop here
        // rather than paying for another round of probes.
        if fe.cancel_requested() {
            crate::cancel::bail();
        }
        let probes_before = fe.probes_used();
        let log_before = self.lifecycle.log().len();

        // --- Acquiring: no link yet; scans are paced by the backoff. ---
        if !self.lifecycle.state().is_established() {
            let actions = if self.lifecycle.should_scan(fe.now_s()) {
                self.establish(fe)
            } else {
                Vec::new()
            };
            let snr_db = if self.mb.is_some() {
                fe.probe(&self.current_weights()).snr_db()
            } else {
                -60.0
            };
            let probes = fe.probes_used() - probes_before;
            return self.report(fe.now_s(), snr_db, Vec::new(), actions, probes, log_before);
        }

        // --- Degraded wide-beam fallback: keep-alive probing only; the
        // multi-beam machinery is stale by definition. A marked SNR
        // improvement (or the safety-net heartbeat) re-trains.
        if self.lifecycle.fallback_active() {
            self.rounds += 1;
            let mut actions = Vec::new();
            let snr_db = fe.probe(&self.current_weights()).snr_db();
            self.lifecycle.apply(
                LinkSignal::SnrReport {
                    snr_db,
                    ref_db: self.best_snr_db,
                    unexplained_drop: false,
                },
                fe.now_s(),
            );
            if matches!(self.lifecycle.state(), LinkState::Recovering { .. }) {
                actions.push(ControllerAction::Retrained);
                let mut est_actions = self.establish(fe);
                actions.append(&mut est_actions);
            }
            let probes = fe.probes_used() - probes_before;
            return self.report(fe.now_s(), snr_db, Vec::new(), actions, probes, log_before);
        }

        self.rounds += 1;
        let mut actions = Vec::new();

        // 1. Probe the live multi-beam; super-resolve per-beam powers.
        let obs = fe.probe(&self.current_weights());
        let snr_db = obs.snr_db();
        let est = self.fit_per_beam(&obs, fe.now_s());
        let per_beam_db = est.powers_db();
        // Relative ToFs drift slowly with user motion (§4.3); adopt the
        // jitter-refined values so the dictionary follows the geometry.
        self.rel_delays_ns = est.rel_delays_ns.clone();

        // 2. Classify each active beam.
        let k_total = per_beam_db.len();
        let mut realign: Vec<(usize, f64)> = Vec::new();
        for (k, &beam_db) in per_beam_db.iter().enumerate() {
            if self.detectors[k].is_blocked() {
                continue; // handled by the recovery path below
            }
            let upd = self.trackers[k].update(&self.cfg.geom, beam_db);
            match self.detectors[k].classify(upd.delta_db, upd.drop_db) {
                BeamEvent::Blocked => {
                    let mb = self.mb.as_mut().expect("established");
                    if mb.component(k).amplitude > 0.0 {
                        self.saved_amp[k] = mb.component(k).amplitude;
                        mb.component_mut(k).amplitude = 0.0;
                    }
                    actions.push(ControllerAction::BeamBlocked(k));
                }
                BeamEvent::Mobility => {
                    if self.cfg.enable_tracking {
                        if let Some(dev) = upd.deviation_deg {
                            if dev > 1.0 {
                                realign.push((k, dev.min(self.cfg.max_step_deg)));
                            }
                        }
                    }
                }
                BeamEvent::Stable | BeamEvent::Recovered => {}
            }
        }

        // Guard: if every beam just got blocked, restore them — an all-beam
        // "blockage" is indistinguishable from a common-mode fade and
        // muting everything would silence the link entirely.
        if self.active_beams() == 0 {
            let mb = self.mb.as_mut().expect("established");
            for k in 0..k_total {
                if self.saved_amp[k] > 0.0 {
                    mb.component_mut(k).amplitude = self.saved_amp[k];
                    self.detectors[k].set_blocked(false);
                }
            }
        }

        // 3. Mobility: hypothesis probe resolves the ± ambiguity jointly.
        // Skip in rounds with blockage transitions: the per-beam powers are
        // mid-ramp and would mislead the pattern inversion.
        let blockage_transition = actions.iter().any(|a| {
            matches!(
                a,
                ControllerAction::BeamBlocked(_) | ControllerAction::BeamRecovered(_)
            )
        });
        if blockage_transition {
            realign.clear();
        }
        if !realign.is_empty() {
            let mb = self.mb.as_ref().expect("established").clone();
            // One hypothesis probe with every drifting beam shifted toward
            // +Δθ; super-resolution then gives a *per-beam* verdict, so
            // beams drifting in opposite directions (Fig. 10) each resolve
            // their own sign.
            let mut plus = mb.clone();
            for &(k, dev) in &realign {
                plus.component_mut(k).angle_deg += dev;
            }
            let w_plus = self.cfg.quantizer.quantize(&plus.weights(&self.cfg.geom));
            let obs_plus = fe.probe(&w_plus);
            let est_plus = self.fit_per_beam(&obs_plus, fe.now_s());
            let mut chosen = mb.clone();
            for &(k, dev) in &realign {
                let sign = if est_plus.powers_mw[k] > est.powers_mw[k] {
                    1.0
                } else {
                    -1.0
                };
                chosen.component_mut(k).angle_deg += sign * dev;
            }
            for &(k, _) in &realign {
                let from = mb.component(k).angle_deg;
                let to = chosen.component(k).angle_deg;
                actions.push(ControllerAction::Realigned {
                    idx: k,
                    from_deg: from,
                    to_deg: to,
                });
            }
            self.mb = Some(chosen);
            // Refresh constructive parameters and re-baseline.
            self.refresh_constructive(fe, &est.powers_mw);
            self.rebaseline(fe);
        }

        // 4. Periodic recovery probes for blocked beams. The path may have
        // *moved* while muted (the reflector tracks the user, §8), so probe
        // a small angular neighborhood of the stale angle and re-acquire at
        // the best response.
        if self.rounds.is_multiple_of(self.cfg.recovery_check_rounds) {
            let blocked: Vec<usize> = (0..k_total)
                .filter(|&k| self.detectors[k].is_blocked())
                .collect();
            for k in blocked {
                let stale = self
                    .mb
                    .as_ref()
                    .expect("established")
                    .component(k)
                    .angle_deg;
                let mut best: Option<(f64, f64)> = None; // (power_db, angle)
                let offsets: &[f64] = if self.cfg.enable_tracking {
                    &[-3.0, 0.0, 3.0]
                } else {
                    &[0.0]
                };
                for &offset in offsets {
                    let angle = stale + offset;
                    let probe = fe.probe(
                        &self
                            .cfg
                            .quantizer
                            .quantize(&single_beam(&self.cfg.geom, angle)),
                    );
                    let p = db_from_pow(probe.mean_power_mw().max(1e-20));
                    if best.is_none_or(|(bp, _)| p > bp) {
                        best = Some((p, angle));
                    }
                }
                let (power_db, best_angle) = best.expect("probed");
                // Compare against the beam's aligned baseline, corrected for
                // the power fraction it used to carry inside the multi-beam.
                let amp = self.saved_amp[k].max(1e-3);
                let frac_db = db_from_pow(self.fraction_for_amp(amp));
                let single_baseline_db = self.trackers[k].baseline_db - frac_db;
                if power_db >= single_baseline_db - self.cfg.recovery_margin_db {
                    let mb = self.mb.as_mut().expect("established");
                    mb.component_mut(k).amplitude = self.saved_amp[k];
                    mb.component_mut(k).angle_deg = best_angle;
                    self.detectors[k].set_blocked(false);
                    actions.push(ControllerAction::BeamRecovered(k));
                    let powers = est.powers_mw.clone();
                    self.refresh_constructive(fe, &powers);
                    self.rebaseline(fe);
                }
            }
        }

        // 5. Lifecycle verdict. The state machine detects outages and
        // persistent degradation and schedules full re-trainings with
        // bounded attempts and exponential backoff (§8 "tracking
        // re-calibration"; §4.1 — "in case of a complete outage, the radio
        // can initiate a new beam training phase"). The `without_tracking`
        // ablation freezes re-training entirely (infinite retrain
        // threshold), so the measurement is withheld from the machine.
        if self.cfg.retrain_loss_db.is_finite() {
            // Evidence that maintenance lost the link: an active beam's
            // power sits far below its baseline with no blockage/mobility
            // explanation. An outage entered with this evidence gets its
            // first re-train immediately instead of waiting out a backoff.
            let worst_drop = self
                .trackers
                .iter()
                .enumerate()
                .filter(|(k, _)| !self.detectors[*k].is_blocked())
                .map(|(_, t)| t.baseline_db)
                .zip(per_beam_db.iter())
                .map(|(base, &now)| base - now)
                .fold(0.0f64, f64::max);
            // A probe that reads the bare noise floor is indistinguishable
            // from a *lost* probe (front-end erasure). A measured collapse
            // — real signal, just far below baseline — earns the urgent
            // same-round re-train; an erasure instead takes the outage
            // path, which confirms on the next round before spending a
            // 32 ms scan on what may be a single bad probe.
            let measured = snr_db > ERASURE_FLOOR_DB;
            self.lifecycle.apply(
                LinkSignal::SnrReport {
                    snr_db,
                    ref_db: self.best_snr_db,
                    unexplained_drop: measured && worst_drop > self.cfg.retrain_loss_db,
                },
                fe.now_s(),
            );
            if matches!(self.lifecycle.state(), LinkState::Recovering { .. }) {
                actions.push(ControllerAction::Retrained);
                let mut est_actions = self.establish(fe);
                actions.append(&mut est_actions);
            }
        }

        let probes = fe.probes_used() - probes_before;
        self.report(fe.now_s(), snr_db, per_beam_db, actions, probes, log_before)
    }

    /// Assembles a [`RoundReport`], attaching the lifecycle transitions
    /// that fired since `log_before`, and records the round as a telemetry
    /// event (state, verdict, per-beam powers) when a tracer wants events.
    // xtask-allow(hot-path-closure): the round report owns its action/power vectors by contract; one report per maintenance round, not per slot
    // xtask-allow(hot-path-panic): log_before is a snapshot of lifecycle.log().len() taken earlier in the same round, so the range start cannot exceed the length
    fn report(
        &self,
        t_s: f64,
        snr_db: f64,
        per_beam_db: Vec<f64>,
        actions: Vec<ControllerAction>,
        probes: usize,
        log_before: usize,
    ) -> RoundReport {
        #[cfg(not(feature = "telemetry"))]
        let _ = t_s;
        #[cfg(feature = "telemetry")]
        if self.tracer.wants_events() {
            self.tracer.event(mmwave_telemetry::TraceEvent::Round {
                t_s,
                state: self.lifecycle.state().kind().name(),
                verdict: round_verdict(&actions),
                per_beam_db: per_beam_db.clone(),
            });
        }
        RoundReport {
            snr_db,
            per_beam_db,
            actions,
            probes,
            state: self.lifecycle.state(),
            transitions: self.lifecycle.log()[log_before..].to_vec(),
        }
    }

    /// Number of beams currently radiating power.
    pub fn active_beams(&self) -> usize {
        self.mb
            .as_ref()
            .map(|mb| mb.components().iter().filter(|c| c.amplitude > 0.0).count())
            .unwrap_or(0)
    }

    /// Power fraction a component with amplitude `amp` would carry.
    // xtask-allow(hot-path-panic): called only with an established multi-beam (lifecycle invariant), so the expect cannot fire
    fn fraction_for_amp(&self, amp: f64) -> f64 {
        let mb = self.mb.as_ref().expect("established");
        let total: f64 = mb
            .components()
            .iter()
            .map(|c| c.amplitude * c.amplitude)
            .sum::<f64>()
            + amp * amp;
        if total <= 0.0 {
            1.0
        } else {
            (amp * amp / total).max(1e-6)
        }
    }

    /// Re-estimates `(δ, σ)` of every active non-reference beam against the
    /// strongest active beam (2 probes each), using the latest per-beam
    /// powers as the single-beam spectra.
    // xtask-allow(hot-path-closure): per-beam probe spectra are collected per re-estimation event (every refresh_period rounds), not per slot (ROADMAP item 1)
    // xtask-allow(hot-path-panic): beam indices are bounded by the component count; powers_mw comes from the same multi-beam probe
    fn refresh_constructive(&mut self, fe: &mut dyn LinkFrontEnd, powers_mw: &[f64]) {
        if !self.cfg.enable_constructive {
            return;
        }
        let mb = self.mb.as_ref().expect("established").clone();
        let comps = mb.components();
        // Reference: strongest active beam.
        let Some(r) = (0..comps.len())
            .filter(|&k| comps[k].amplitude > 0.0 || k == 0)
            .max_by(|&a, &b| powers_mw[a].total_cmp(&powers_mw[b]))
        else {
            return;
        };
        let mut updated = mb.clone();
        for k in 0..comps.len() {
            if k == r || comps[k].amplitude <= 0.0 {
                continue;
            }
            let rel = two_probe_relative(
                fe,
                comps[r].angle_deg,
                comps[k].angle_deg,
                &[powers_mw[r].max(1e-18)],
                &[powers_mw[k].max(1e-18)],
                self.rel_delays_ns[k] - self.rel_delays_ns[r],
            );
            let ref_amp = comps[r].amplitude.max(1e-6);
            updated.component_mut(k).amplitude = (ref_amp * rel.delta).clamp(0.0, 1.5);
            updated.component_mut(k).phase_rad = comps[r].phase_rad + rel.sigma_rad;
        }
        self.mb = Some(updated);
    }

    /// Probes the refreshed multi-beam once and re-anchors every active
    /// tracker's baseline.
    // xtask-allow(hot-path-panic): tracker/baseline indices are bounded by the per-beam estimate the probe on the line above just produced
    fn rebaseline(&mut self, fe: &mut dyn LinkFrontEnd) {
        let obs = fe.probe(&self.current_weights());
        let est = self.fit_per_beam(&obs, fe.now_s());
        let baselines = est.powers_db();
        let mb = self.mb.as_ref().expect("established");
        for (k, tracker) in self.trackers.iter_mut().enumerate() {
            if !self.detectors[k].is_blocked() {
                tracker.realign(mb.component(k).angle_deg, baselines[k]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::SnapshotFrontEnd;
    use mmwave_array::geometry::ArrayGeometry;
    use mmwave_channel::channel::{GeometricChannel, UeReceiver};
    use mmwave_channel::environment::Scene;
    use mmwave_channel::geom2d::v2;
    use mmwave_dsp::rng::Rng64;
    use mmwave_dsp::units::FC_28GHZ;
    use mmwave_phy::chanest::ChannelSounder;

    fn room_frontend(seed: u64) -> SnapshotFrontEnd {
        let scene = Scene::conference_room(FC_28GHZ);
        // Off-center UE: a centered UE makes the two glass-wall bounces
        // arrive with *identical* delays, which no delay-domain
        // super-resolution (the paper's included) can separate.
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
    fn establishes_multibeam_in_conference_room() {
        let mut fe = room_frontend(1);
        let mut ctl = MmReliableController::new(MmReliableConfig::paper_default());
        let actions = ctl.establish(&mut fe);
        assert!(matches!(actions[0], ControllerAction::Established(_)));
        let mb = ctl.multibeam().expect("established");
        assert!(mb.num_beams() >= 2, "should find LOS + reflector");
        // Establishment probe budget: 64 training + 2 per extra beam + 1
        // baseline.
        let expected = 64 + 2 * (mb.num_beams() - 1) + 1;
        assert_eq!(fe.probes_used(), expected);
    }

    #[test]
    fn established_beam_approaches_oracle() {
        let mut fe = room_frontend(2);
        let mut ctl = MmReliableController::new(MmReliableConfig::paper_default());
        ctl.establish(&mut fe);
        let w = ctl.current_weights();
        let geom = ctl.config().geom;
        let p = fe.channel.received_power(&geom, &w, &UeReceiver::Omni);
        let oracle = fe.channel.optimal_power(&geom, &UeReceiver::Omni);
        assert!(
            p > 0.8 * oracle,
            "constructive multi-beam at {:.1}% of oracle",
            100.0 * p / oracle
        );
        // And it must beat the single-beam-on-LOS baseline.
        let single = fe
            .channel
            .received_power(&geom, &single_beam(&geom, 0.0), &UeReceiver::Omni);
        assert!(p > single, "multi {p} vs single {single}");
    }

    #[test]
    fn quiet_rounds_take_one_probe() {
        let mut fe = room_frontend(3);
        let mut ctl = MmReliableController::new(MmReliableConfig::paper_default());
        ctl.establish(&mut fe);
        // A few rounds with a static channel: no actions, 1 probe each.
        for _ in 0..4 {
            let r = ctl.maintenance_round(&mut fe);
            assert!(r.actions.is_empty(), "unexpected actions: {:?}", r.actions);
            assert_eq!(r.probes, 1);
            assert!(r.snr_db > 20.0);
        }
    }

    #[test]
    fn blockage_is_detected_and_power_repurposed() {
        let mut fe = room_frontend(4);
        let mut ctl = MmReliableController::new(MmReliableConfig::paper_default());
        ctl.establish(&mut fe);
        let snr_before = ctl.maintenance_round(&mut fe).snr_db;
        // Block the LOS path hard (walker in front of the array).
        fe.channel.paths[0].blockage_db = 30.0;
        let r = ctl.maintenance_round(&mut fe);
        assert!(
            r.actions
                .iter()
                .any(|a| matches!(a, ControllerAction::BeamBlocked(0))),
            "expected LOS beam blocked, got {:?}",
            r.actions
        );
        // The re-purposed multi-beam must keep the link alive on reflectors.
        let r2 = ctl.maintenance_round(&mut fe);
        assert!(
            r2.snr_db > ctl.config().outage_snr_db,
            "link died: {} dB (before {snr_before})",
            r2.snr_db
        );
        assert!(ctl.active_beams() < ctl.multibeam().unwrap().num_beams());
    }

    #[test]
    fn blocked_beam_recovers() {
        let mut fe = room_frontend(5);
        let mut ctl = MmReliableController::new(MmReliableConfig::paper_default());
        ctl.establish(&mut fe);
        ctl.maintenance_round(&mut fe);
        fe.channel.paths[0].blockage_db = 30.0;
        ctl.maintenance_round(&mut fe);
        assert!(ctl.detectors[0].is_blocked());
        // Blocker walks away.
        fe.channel.paths[0].blockage_db = 0.0;
        let mut recovered = false;
        for _ in 0..8 {
            let r = ctl.maintenance_round(&mut fe);
            if r.actions
                .iter()
                .any(|a| matches!(a, ControllerAction::BeamRecovered(0)))
            {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "beam 0 should be readmitted");
        assert_eq!(ctl.active_beams(), ctl.multibeam().unwrap().num_beams());
    }

    #[test]
    fn mobility_triggers_realignment_toward_truth() {
        let mut fe = room_frontend(6);
        let mut ctl = MmReliableController::new(MmReliableConfig::paper_default());
        ctl.establish(&mut fe);
        ctl.maintenance_round(&mut fe);
        // UE drifted: all paths rotate by +6° (a large lateral move; enough
        // pattern loss to clear the tracker's stability margin).
        for p in fe.channel.paths.iter_mut() {
            p.aod_deg += 6.0;
        }
        let mut realigned = false;
        for _ in 0..8 {
            let r = ctl.maintenance_round(&mut fe);
            for a in &r.actions {
                if let ControllerAction::Realigned {
                    idx: 0,
                    from_deg,
                    to_deg,
                } = a
                {
                    realigned = true;
                    assert!(
                        to_deg > from_deg,
                        "should move toward +6°: {from_deg} → {to_deg}"
                    );
                }
            }
        }
        assert!(realigned, "controller never realigned");
        // After realignment rounds the beam must sit close to the truth.
        let angle = ctl.multibeam().unwrap().component(0).angle_deg;
        let true_angle = fe.channel.paths[0].aod_deg;
        assert!(
            (angle - true_angle).abs() < 3.0,
            "beam at {angle}, truth {true_angle}"
        );
    }

    #[test]
    fn no_viable_path_leaves_unestablished() {
        let fe_ch = GeometricChannel::new(Vec::new(), FC_28GHZ);
        let mut fe = SnapshotFrontEnd::new(
            fe_ch,
            ChannelSounder::paper_indoor(),
            ArrayGeometry::paper_8x8(),
            UeReceiver::Omni,
            Rng64::seed(7),
        );
        let mut ctl = MmReliableController::new(MmReliableConfig::paper_default());
        let actions = ctl.establish(&mut fe);
        assert!(actions.is_empty());
        assert!(ctl.multibeam().is_none());
        // Maintenance on a dead link re-attempts establishment.
        let r = ctl.maintenance_round(&mut fe);
        assert!(r.snr_db <= -50.0);
    }

    #[test]
    fn maintenance_establishes_if_needed() {
        let mut fe = room_frontend(8);
        let mut ctl = MmReliableController::new(MmReliableConfig::paper_default());
        let r = ctl.maintenance_round(&mut fe);
        assert!(r
            .actions
            .iter()
            .any(|a| matches!(a, ControllerAction::Established(_))));
        assert!(ctl.multibeam().is_some());
    }

    #[test]
    fn two_beam_config_limits_beams() {
        let mut fe = room_frontend(9);
        let mut ctl = MmReliableController::new(MmReliableConfig::paper_default().two_beam());
        ctl.establish(&mut fe);
        assert!(ctl.multibeam().unwrap().num_beams() <= 2);
    }
}
