//! Fault injection over any [`LinkFrontEnd`].
//!
//! [`FaultInjector`] wraps a front end and corrupts its observable
//! behaviour according to a seeded [`FaultSchedule`]: probes get lost,
//! observations go stale, SNR estimates glitch, array elements fail or
//! drift in gain, and the whole front end can go dark for windows of time.
//! The wrapped front end never knows — the controller above sees exactly
//! the failure modes a real mmWave radio exhibits, which is what the
//! lifecycle state machine's bounded-retry recovery is built to survive.
//!
//! Two invariants make the wrapper usable in regression tests:
//!
//! - **Zero-fault transparency** — with [`FaultSchedule::none`] the wrapper
//!   is bit-identical to the bare front end: no fault RNG is consulted and
//!   every probe passes through untouched, so seeded runs reproduce
//!   exactly.
//! - **Separate fault randomness** — fault decisions draw from their own
//!   [`Rng64`] stream (seeded by [`FaultSchedule::seed`]), never from the
//!   channel/noise RNG, so enabling a fault category does not perturb the
//!   underlying channel realization.
//!
//! Every injected fault is recorded as a typed [`FaultEvent`]; the run
//! loop drains them into the per-run [`crate::metrics::RunResult`] event
//! log next to the controller's lifecycle transitions. Probes are
//! corrupted in place in the caller's observation; the last observation is
//! kept for replay only when stale CSI is on.
//!
//! Gain drift ([`GainDrift`]) scales every element of every radiated
//! beam, data slots included, so it is on the per-slot path.

use crate::metrics::RunEvent;
use crate::scenario::ScenarioError;
use crate::simulator::{LinkSimulator, SimFrontEnd};
use mmreliable::frontend::{LinkFrontEnd, ProbeKind};
use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::weights::BeamWeights;
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::drift::GainDrift;
use mmwave_dsp::rng::Rng64;
use mmwave_dsp::units::pow_from_db;
use mmwave_phy::chanest::ProbeObservation;

/// A time window during which probes are lost with some probability.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeLossWindow {
    /// Window start, seconds (front-end clock).
    pub start_s: f64,
    /// Window end, seconds.
    pub end_s: f64,
    /// Per-probe loss probability inside the window, in `[0, 1]`.
    pub loss_prob: f64,
}

impl ProbeLossWindow {
    /// True when `t_s` falls inside the window.
    pub fn contains(&self, t_s: f64) -> bool {
        t_s >= self.start_s && t_s < self.end_s
    }
}

/// Random multiplicative SNR error applied to probe observations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SnrGlitch {
    /// Per-probe glitch probability, in `[0, 1]`.
    pub prob: f64,
    /// Maximum glitch magnitude, dB. Each glitch draws an offset uniformly
    /// in `[-mag_db, +mag_db]`.
    pub mag_db: f64,
}

/// What the fault layer does to the radio, and when. The default schedule
/// injects nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    /// Seed for the dedicated fault RNG (independent of the channel RNG).
    pub seed: u64,
    /// Windows of probabilistic probe loss (erasure: the controller sees a
    /// noise-floor observation, the airtime is still spent).
    pub probe_loss: Vec<ProbeLossWindow>,
    /// Per-probe probability of returning the *previous* observation
    /// instead of the fresh one (stale CSI). `0` disables.
    pub stale_prob: f64,
    /// Random per-probe SNR glitches. `None` disables.
    pub snr_glitch: Option<SnrGlitch>,
    /// Array elements whose phase shifter / PA has failed: their weight is
    /// forced to zero in every radiated beam (probing *and* data).
    pub failed_elements: Vec<usize>,
    /// Peak per-element gain drift, dB. Each element oscillates with its
    /// own random phase over [`FaultSchedule::gain_drift_period_s`].
    /// `0` disables.
    pub gain_drift_db: f64,
    /// Gain-drift oscillation period, seconds.
    pub gain_drift_period_s: f64,
    /// Absolute `(start_s, end_s)` windows during which the front end is
    /// unavailable: every probe comes back as an erasure.
    pub unavailable: Vec<(f64, f64)>,
}

impl FaultSchedule {
    /// The inert schedule: injects nothing, draws no randomness.
    pub fn none() -> Self {
        Self {
            gain_drift_period_s: 1.0,
            ..Self::default()
        }
    }

    /// True when the schedule can never alter behaviour.
    pub fn is_inert(&self) -> bool {
        self.probe_loss.is_empty()
            && self.stale_prob == 0.0
            && self.snr_glitch.is_none()
            && self.failed_elements.is_empty()
            && self.gain_drift_db == 0.0
            && self.unavailable.is_empty()
    }

    /// Validates probabilities and windows.
    pub fn validate(&self) -> Result<(), String> {
        for w in &self.probe_loss {
            if !(0.0..=1.0).contains(&w.loss_prob) {
                return Err(format!("loss_prob {} outside [0,1]", w.loss_prob));
            }
            if !w.end_s.is_finite() || !w.start_s.is_finite() || w.end_s <= w.start_s {
                return Err(format!(
                    "probe-loss window [{}, {}) is empty",
                    w.start_s, w.end_s
                ));
            }
        }
        if !(0.0..=1.0).contains(&self.stale_prob) {
            return Err(format!("stale_prob {} outside [0,1]", self.stale_prob));
        }
        if let Some(g) = &self.snr_glitch {
            if !(0.0..=1.0).contains(&g.prob) {
                return Err(format!("glitch prob {} outside [0,1]", g.prob));
            }
            if g.mag_db < 0.0 {
                return Err(format!("glitch magnitude {} negative", g.mag_db));
            }
        }
        if self.gain_drift_db < 0.0 {
            return Err(format!("gain_drift_db {} negative", self.gain_drift_db));
        }
        if self.gain_drift_db > 0.0
            && (!self.gain_drift_period_s.is_finite() || self.gain_drift_period_s <= 0.0)
        {
            return Err("gain drift requires a positive period".into());
        }
        for (a, b) in &self.unavailable {
            if !b.is_finite() || !a.is_finite() || b <= a {
                return Err(format!("unavailable window [{a}, {b}) is empty"));
            }
        }
        Ok(())
    }

    /// Canonical one-line textual form of the schedule — the `fault` column
    /// of the campaign journal, parseable back with
    /// [`FaultSchedule::parse_spec`] so a recorded failure replays under
    /// the exact schedule that produced it. Inert schedules (regardless of
    /// their seed, which is never consulted) canonicalize to `"none"`.
    ///
    /// Format: `;`-separated `key=value` fields in fixed order, e.g.
    /// `seed=9;loss=0.5@0..1;stale=0.1;glitch=0.2@6;fail=0+9;drift=2@0.5;dark=1..2`.
    pub fn spec_string(&self) -> String {
        if self.is_inert() {
            return "none".into();
        }
        let mut parts = vec![format!("seed={}", self.seed)];
        for w in &self.probe_loss {
            parts.push(format!("loss={}@{}..{}", w.loss_prob, w.start_s, w.end_s));
        }
        if self.stale_prob > 0.0 {
            parts.push(format!("stale={}", self.stale_prob));
        }
        if let Some(g) = &self.snr_glitch {
            parts.push(format!("glitch={}@{}", g.prob, g.mag_db));
        }
        if !self.failed_elements.is_empty() {
            let idx: Vec<String> = self.failed_elements.iter().map(|i| i.to_string()).collect();
            parts.push(format!("fail={}", idx.join("+")));
        }
        if self.gain_drift_db > 0.0 {
            parts.push(format!(
                "drift={}@{}",
                self.gain_drift_db, self.gain_drift_period_s
            ));
        }
        for (a, b) in &self.unavailable {
            parts.push(format!("dark={a}..{b}"));
        }
        parts.join(";")
    }

    /// Parses a [`FaultSchedule::spec_string`] back into a validated
    /// schedule. Accepts `"none"` (or an empty string) for the inert
    /// schedule.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        fn f64_field(s: &str, what: &str) -> Result<f64, String> {
            s.parse::<f64>()
                .map_err(|e| format!("bad {what} {s:?}: {e}"))
        }
        fn window(s: &str, what: &str) -> Result<(f64, f64), String> {
            let (a, b) = s
                .split_once("..")
                .ok_or_else(|| format!("bad {what} window {s:?} (want a..b)"))?;
            Ok((f64_field(a, what)?, f64_field(b, what)?))
        }
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" {
            return Ok(Self::none());
        }
        let mut out = Self::none();
        for part in spec.split(';') {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("bad fault field {part:?} (want key=value)"))?;
            match key {
                "seed" => {
                    out.seed = val
                        .parse::<u64>()
                        .map_err(|e| format!("bad seed {val:?}: {e}"))?;
                }
                "loss" => {
                    let (p, w) = val
                        .split_once('@')
                        .ok_or_else(|| format!("bad loss {val:?} (want p@a..b)"))?;
                    let (start_s, end_s) = window(w, "loss")?;
                    out.probe_loss.push(ProbeLossWindow {
                        start_s,
                        end_s,
                        loss_prob: f64_field(p, "loss_prob")?,
                    });
                }
                "stale" => out.stale_prob = f64_field(val, "stale_prob")?,
                "glitch" => {
                    let (p, m) = val
                        .split_once('@')
                        .ok_or_else(|| format!("bad glitch {val:?} (want p@mag)"))?;
                    out.snr_glitch = Some(SnrGlitch {
                        prob: f64_field(p, "glitch prob")?,
                        mag_db: f64_field(m, "glitch mag")?,
                    });
                }
                "fail" => {
                    out.failed_elements = val
                        .split('+')
                        .map(|i| {
                            i.parse::<usize>()
                                .map_err(|e| format!("bad element index {i:?}: {e}"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "drift" => {
                    let (db, per) = val
                        .split_once('@')
                        .ok_or_else(|| format!("bad drift {val:?} (want db@period)"))?;
                    out.gain_drift_db = f64_field(db, "drift magnitude")?;
                    out.gain_drift_period_s = f64_field(per, "drift period")?;
                }
                "dark" => out.unavailable.push(window(val, "dark")?),
                _ => return Err(format!("unknown fault field {key:?}")),
            }
        }
        out.validate()?;
        Ok(out)
    }
}

/// One injected fault, typed and timestamped.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the fault hit, seconds (front-end clock).
    pub t_s: f64,
    /// What happened.
    pub kind: FaultKind,
}

/// The kinds of fault the injector can produce.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// A probe was erased; the controller saw only the noise floor.
    ProbeLost,
    /// A probe returned the previous observation instead of a fresh one.
    StaleObservation,
    /// A probe's CSI was scaled by `offset_db`.
    SnrGlitch {
        /// Applied SNR offset, dB.
        offset_db: f64,
    },
    /// The front end was inside an unavailability window.
    FrontEndUnavailable,
    /// Element `index` radiates nothing for the whole run (logged once, at
    /// the first probe).
    ElementFailed {
        /// Failed element index.
        index: usize,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::ProbeLost => write!(f, "probe-lost"),
            FaultKind::StaleObservation => write!(f, "stale-observation"),
            FaultKind::SnrGlitch { offset_db } => {
                write!(f, "snr-glitch({offset_db:+.1}dB)")
            }
            FaultKind::FrontEndUnavailable => write!(f, "front-end-unavailable"),
            FaultKind::ElementFailed { index } => write!(f, "element-failed({index})"),
        }
    }
}

/// A [`LinkFrontEnd`] decorator that injects the faults of a
/// [`FaultSchedule`] between the radio and the beam-management layer.
pub struct FaultInjector<F> {
    inner: F,
    schedule: FaultSchedule,
    rng: Rng64,
    /// The last delivered observation, kept only when stale CSI is on
    /// (only a stale draw reads it).
    last_obs: Option<ProbeObservation>,
    /// The schedule's gain drift (`None` when drift is disabled).
    drift: Option<GainDrift>,
    /// Probe weights under the element faults, sized at construction.
    radiated: BeamWeights,
    events: Vec<FaultEvent>,
    static_faults_logged: bool,
}

impl<F: LinkFrontEnd> FaultInjector<F> {
    /// Wraps `inner` under `schedule`, failing fast on an invalid schedule
    /// — a mis-specified campaign cell surfaces here as a `Validation`
    /// failure instead of corrupting a sweep halfway through. The typed
    /// [`ScenarioError`] lets the scenario fuzzer tell this reject apart
    /// from a real run failure.
    pub fn new(inner: F, schedule: FaultSchedule) -> Result<Self, ScenarioError> {
        schedule.validate().map_err(ScenarioError::fault)?;
        let mut rng = Rng64::seed(schedule.seed ^ 0xFA17_FA17_FA17_FA17);
        let n = inner.geometry().num_elements();
        let drift = (schedule.gain_drift_db > 0.0).then(|| {
            GainDrift::new(
                schedule.gain_drift_db,
                schedule.gain_drift_period_s,
                n,
                &mut rng,
            )
        });
        Ok(Self {
            inner,
            schedule,
            rng,
            last_obs: None,
            drift,
            radiated: BeamWeights::muted(n),
            events: Vec::new(),
            static_faults_logged: false,
        })
    }

    /// The wrapped front end.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// The wrapped front end, mutably.
    pub fn inner_mut(&mut self) -> &mut F {
        &mut self.inner
    }

    /// The active schedule.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Faults injected since the last drain (the run loop drains them;
    /// unit tests inspect them directly).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The weights actually radiated under the element faults: failed
    /// elements are zeroed (their power is simply not transmitted — no
    /// re-normalization), drifting elements get their time-varying gain.
    /// Applies to probing *and* data-plane transmissions.
    pub fn faulted_weights(&self, w: &BeamWeights) -> BeamWeights {
        let mut out = w.clone();
        element_faults(
            &self.schedule,
            self.drift.as_ref(),
            self.inner.now_s(),
            out.as_mut_slice(),
        );
        out
    }

    fn log_static_faults(&mut self, t_s: f64) {
        if self.static_faults_logged {
            return;
        }
        self.static_faults_logged = true;
        for &i in &self.schedule.failed_elements {
            self.events.push(FaultEvent {
                t_s,
                kind: FaultKind::ElementFailed { index: i },
            });
        }
    }

    fn unavailable_at(&self, t_s: f64) -> bool {
        self.schedule
            .unavailable
            .iter()
            .any(|&(a, b)| t_s >= a && t_s < b)
    }

    /// The observation-domain faults, applied to `obs` in place. An
    /// erasure leaves only the noise floor on the same comb; a stale draw
    /// replays the last delivered observation.
    fn corrupt(&mut self, obs: &mut ProbeObservation, t_s: f64) {
        let erased = if self.unavailable_at(t_s) {
            Some(FaultKind::FrontEndUnavailable)
        } else {
            match self.schedule.probe_loss.iter().find(|w| w.contains(t_s)) {
                Some(w) if self.rng.chance(w.loss_prob) => Some(FaultKind::ProbeLost),
                _ => None,
            }
        };
        if let Some(kind) = erased {
            self.events.push(FaultEvent { t_s, kind });
            obs.csi.fill(Complex64::ZERO);
            return;
        }
        if self.schedule.stale_prob > 0.0 && self.rng.chance(self.schedule.stale_prob) {
            if let Some(prev) = &self.last_obs {
                self.events.push(FaultEvent {
                    t_s,
                    kind: FaultKind::StaleObservation,
                });
                obs.copy_from(prev);
                return;
            }
        }
        if let Some(g) = self.schedule.snr_glitch {
            if self.rng.chance(g.prob) {
                let offset_db = self.rng.uniform_in(-g.mag_db, g.mag_db);
                let k = pow_from_db(offset_db).sqrt();
                for x in &mut obs.csi {
                    *x = x.scale(k);
                }
                self.events.push(FaultEvent {
                    t_s,
                    kind: FaultKind::SnrGlitch { offset_db },
                });
            }
        }
        if self.schedule.stale_prob > 0.0 {
            self.last_obs
                .get_or_insert_with(ProbeObservation::empty)
                .copy_from(obs);
        }
    }
}

/// Applies the gain drift at time `t_s` and the schedule's element
/// failures to `v` in place, allocating nothing; a no-op when the schedule
/// has no element faults. Takes the stage fields rather than the injector
/// so the probe path can transform the injector's own scratch.
fn element_faults(
    schedule: &FaultSchedule,
    drift: Option<&GainDrift>,
    t_s: f64,
    v: &mut [Complex64],
) {
    if let Some(drift) = drift {
        drift.apply(t_s, v);
    }
    for &i in &schedule.failed_elements {
        if let Some(x) = v.get_mut(i) {
            *x = Complex64::ZERO;
        }
    }
}

impl<F: LinkFrontEnd> LinkFrontEnd for FaultInjector<F> {
    fn geometry(&self) -> &ArrayGeometry {
        self.inner.geometry()
    }

    fn probe_kind_into(
        &mut self,
        weights: &BeamWeights,
        kind: ProbeKind,
        out: &mut ProbeObservation,
    ) {
        let t_s = self.inner.now_s();
        self.log_static_faults(t_s);
        if self.schedule.failed_elements.is_empty() && self.drift.is_none() {
            self.inner.probe_kind_into(weights, kind, out);
        } else {
            self.radiated.copy_from(weights);
            element_faults(
                &self.schedule,
                self.drift.as_ref(),
                t_s,
                self.radiated.as_mut_slice(),
            );
            self.inner.probe_kind_into(&self.radiated, kind, out);
        }
        self.corrupt(out, t_s);
    }

    fn wait(&mut self, dur_s: f64) {
        self.inner.wait(dur_s);
    }

    fn now_s(&self) -> f64 {
        self.inner.now_s()
    }

    fn cancel_requested(&self) -> bool {
        self.inner.cancel_requested()
    }

    fn probes_used(&self) -> usize {
        self.inner.probes_used()
    }
}

impl<F: SimFrontEnd> SimFrontEnd for FaultInjector<F> {
    fn sim(&self) -> &LinkSimulator {
        self.inner.sim()
    }

    fn sim_mut(&mut self) -> &mut LinkSimulator {
        self.inner.sim_mut()
    }

    fn apply_radiated_faults(&mut self, w: &mut BeamWeights) {
        // Element faults hit the data plane too; compose with any faults
        // the inner stack applies.
        let t_s = self.inner.now_s();
        element_faults(&self.schedule, self.drift.as_ref(), t_s, w.as_mut_slice());
        self.inner.apply_radiated_faults(w);
    }

    fn drain_events_into(&mut self, out: &mut Vec<RunEvent>) {
        out.extend(self.events.drain(..).map(RunEvent::Fault));
        self.inner.drain_events_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmreliable::frontend::SnapshotFrontEnd;
    use mmwave_channel::channel::{GeometricChannel, UeReceiver};
    use mmwave_channel::environment::Scene;
    use mmwave_channel::geom2d::v2;
    use mmwave_dsp::units::FC_28GHZ;
    use mmwave_phy::chanest::ChannelSounder;

    fn frozen_fe(seed: u64) -> SnapshotFrontEnd {
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

    fn boresight(fe: &impl LinkFrontEnd) -> BeamWeights {
        mmwave_array::steering::single_beam(fe.geometry(), 0.0)
    }

    #[test]
    fn inert_schedule_is_bit_identical() {
        let mut plain = frozen_fe(7);
        let w = boresight(&plain);
        let direct: Vec<ProbeObservation> = (0..16).map(|_| plain.probe(&w)).collect();
        let mut wrapped = FaultInjector::new(frozen_fe(7), FaultSchedule::none()).unwrap();
        for d in &direct {
            let o = wrapped.probe(&w);
            assert_eq!(o.csi, d.csi, "zero-fault wrapper must be transparent");
        }
        assert!(wrapped.events().is_empty());
        assert!(FaultSchedule::none().is_inert());
    }

    #[test]
    fn probe_loss_erases_within_window() {
        let mut sched = FaultSchedule::none();
        sched.probe_loss = vec![ProbeLossWindow {
            start_s: 0.0,
            end_s: 1.0,
            loss_prob: 1.0,
        }];
        let mut fe = FaultInjector::new(frozen_fe(1), sched).unwrap();
        let w = boresight(&fe);
        let obs = fe.probe(&w);
        assert_eq!(obs.snr_db(), -60.0, "lost probe must read as noise floor");
        assert!(matches!(fe.events()[0].kind, FaultKind::ProbeLost));
        // Airtime was still spent.
        assert_eq!(fe.probes_used(), 1);
    }

    #[test]
    fn stale_returns_previous_observation() {
        let mut sched = FaultSchedule::none();
        sched.stale_prob = 1.0;
        let mut fe = FaultInjector::new(frozen_fe(2), sched).unwrap();
        let w = boresight(&fe);
        let first = fe.probe(&w); // nothing cached yet: passes through
        let second = fe.probe(&w);
        assert_eq!(first.csi, second.csi, "second probe must replay the first");
        assert!(fe
            .events()
            .iter()
            .any(|e| e.kind == FaultKind::StaleObservation));
    }

    #[test]
    fn glitch_scales_snr_and_logs_offset() {
        let mut sched = FaultSchedule::none();
        sched.snr_glitch = Some(SnrGlitch {
            prob: 1.0,
            mag_db: 6.0,
        });
        let mut fe = FaultInjector::new(frozen_fe(3), sched).unwrap();
        let mut clean = frozen_fe(3);
        let w = boresight(&fe);
        let glitched = fe.probe(&w);
        let baseline = clean.probe(&w);
        let logged = match fe.events()[0].kind {
            FaultKind::SnrGlitch { offset_db } => offset_db,
            k => panic!("expected glitch event, got {k:?}"),
        };
        assert!(logged.abs() <= 6.0);
        let delta = glitched.snr_db() - baseline.snr_db();
        // High-SNR link: the noise de-bias shifts the dB delta slightly.
        assert!(
            (delta - logged).abs() < 0.5,
            "delta {delta} vs logged {logged}"
        );
    }

    #[test]
    fn failed_elements_radiate_nothing() {
        let mut sched = FaultSchedule::none();
        sched.failed_elements = vec![0, 9];
        let fe = FaultInjector::new(frozen_fe(4), sched).unwrap();
        let w = boresight(&fe);
        let fw = fe.faulted_weights(&w);
        assert_eq!(fw.as_slice()[0], Complex64::ZERO);
        assert_eq!(fw.as_slice()[9], Complex64::ZERO);
        assert_ne!(fw.as_slice()[1], Complex64::ZERO);
        // TRP drops by exactly the failed elements' share.
        let trp: f64 = fw.as_slice().iter().map(|x| x.norm_sqr()).sum();
        let full: f64 = w.as_slice().iter().map(|x| x.norm_sqr()).sum();
        assert!(trp < full);
    }

    #[test]
    fn unavailable_window_blacks_out_probes() {
        let mut sched = FaultSchedule::none();
        sched.unavailable = vec![(0.0, 10.0)];
        let mut fe = FaultInjector::new(frozen_fe(5), sched).unwrap();
        let w = boresight(&fe);
        let obs = fe.probe(&w);
        assert_eq!(obs.snr_db(), -60.0);
        assert!(matches!(
            fe.events()[0].kind,
            FaultKind::FrontEndUnavailable
        ));
    }

    #[test]
    fn gain_drift_perturbs_weights_boundedly() {
        let mut sched = FaultSchedule::none();
        sched.gain_drift_db = 2.0;
        sched.gain_drift_period_s = 0.5;
        let mut fe = FaultInjector::new(frozen_fe(6), sched).unwrap();
        let w = boresight(&fe);
        let fw = fe.faulted_weights(&w);
        let max_ratio = pow_from_db(2.0).sqrt();
        for (a, b) in w.as_slice().iter().zip(fw.as_slice()) {
            let r = b.abs() / a.abs();
            assert!(
                r >= 1.0 / max_ratio - 1e-9 && r <= max_ratio + 1e-9,
                "ratio {r}"
            );
        }
        // Drift is time-varying: advance the clock and the gains move.
        fe.probe(&w);
        fe.inner_mut().wait(0.1);
        let fw2 = fe.faulted_weights(&w);
        assert_ne!(fw.as_slice()[0], fw2.as_slice()[0]);
    }

    #[test]
    fn drift_lanes_match_the_sin_powf_sqrt_form() {
        // The angle-addition scale exp(sin ωt·κcos φ + cos ωt·κsin φ)
        // against the direct sqrt(pow_from_db(G·sin(ωt + φ))), with the
        // per-element phases redrawn in the injector's RNG order.
        let mut clock = Rng64::seed(2026);
        let mut worst = 0.0f64;
        for (k, g_db) in [0.5, 1.5, 3.0].into_iter().enumerate() {
            for (m, period_s) in [0.2, 0.5, 1.0].into_iter().enumerate() {
                let seed = 100 + (3 * k + m) as u64;
                let sched = FaultSchedule {
                    seed,
                    gain_drift_db: g_db,
                    gain_drift_period_s: period_s,
                    ..FaultSchedule::none()
                };
                let mut fe = FaultInjector::new(frozen_fe(6), sched).unwrap();
                let n = fe.geometry().num_elements();
                assert_eq!(n, 64);
                let mut draws = Rng64::seed(seed ^ 0xFA17_FA17_FA17_FA17);
                let phases: Vec<f64> = (0..n)
                    .map(|_| draws.uniform_in(0.0, std::f64::consts::TAU))
                    .collect();
                let ones = BeamWeights::from_vec(vec![Complex64::ONE; n]);
                let omega = std::f64::consts::TAU / period_s;
                while fe.now_s() <= 10.0 {
                    let t = fe.now_s();
                    let got = fe.faulted_weights(&ones);
                    for (x, &phase) in got.as_slice().iter().zip(&phases) {
                        let want = pow_from_db(g_db * (omega * t + phase).sin()).sqrt();
                        assert_eq!(x.im, 0.0);
                        worst = worst.max((x.re - want).abs() / want);
                    }
                    fe.inner_mut().wait(clock.uniform_in(0.0, 0.05));
                }
            }
        }
        assert!(worst <= 1e-13, "worst relative error {worst:e}");
    }

    #[test]
    fn spec_string_round_trips() {
        let mut s = FaultSchedule::none();
        s.seed = 9;
        s.probe_loss = vec![ProbeLossWindow {
            start_s: 0.25,
            end_s: 1.5,
            loss_prob: 0.5,
        }];
        s.stale_prob = 0.1;
        s.snr_glitch = Some(SnrGlitch {
            prob: 0.2,
            mag_db: 6.0,
        });
        s.failed_elements = vec![0, 9];
        s.gain_drift_db = 2.0;
        s.gain_drift_period_s = 0.5;
        s.unavailable = vec![(1.0, 2.0)];
        let spec = s.spec_string();
        let back = FaultSchedule::parse_spec(&spec).unwrap();
        assert_eq!(back, s, "parse(spec) must reproduce the schedule");
        assert_eq!(back.spec_string(), spec, "spec form is canonical");
        // Inert schedules canonicalize to "none" and parse back inert.
        assert_eq!(FaultSchedule::none().spec_string(), "none");
        assert!(FaultSchedule::parse_spec("none").unwrap().is_inert());
        assert!(FaultSchedule::parse_spec("").unwrap().is_inert());
        // Malformed and invalid specs are rejected.
        assert!(FaultSchedule::parse_spec("loss=2@0..1").is_err());
        assert!(FaultSchedule::parse_spec("bogus").is_err());
        assert!(FaultSchedule::parse_spec("what=1").is_err());
    }

    #[test]
    fn invalid_schedule_fails_construction() {
        let mut s = FaultSchedule::none();
        s.stale_prob = 1.5;
        assert!(FaultInjector::new(frozen_fe(8), s).is_err());
    }

    #[test]
    fn schedule_validation_rejects_bad_inputs() {
        let mut s = FaultSchedule::none();
        s.stale_prob = 1.5;
        assert!(s.validate().is_err());
        let mut s = FaultSchedule::none();
        s.probe_loss = vec![ProbeLossWindow {
            start_s: 1.0,
            end_s: 1.0,
            loss_prob: 0.5,
        }];
        assert!(s.validate().is_err());
        let mut s = FaultSchedule::none();
        s.gain_drift_db = 1.0;
        s.gain_drift_period_s = 0.0;
        assert!(s.validate().is_err());
        assert!(FaultSchedule::none().validate().is_ok());
    }
}
