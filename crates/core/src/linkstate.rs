//! The explicit link lifecycle state machine.
//!
//! The controller's establish / maintain / re-train life cycle used to be
//! encoded implicitly in ad-hoc branches; this module makes it an explicit,
//! fault-tolerant state machine in the style of production state
//! controllers: lifecycle states are enum-modelled, every state change goes
//! through **one** transition function ([`LinkLifecycle::apply`]), and
//! recovery work (full SSB re-training) is retried with **bounded attempts
//! and exponential backoff** instead of hot-looping — a link that cannot be
//! re-trained escalates to a wide-beam degraded fallback and keeps serving
//! what it can.
//!
//! State semantics:
//!
//! - [`LinkState::Acquiring`] — no link yet; initial training scans run
//!   with backoff between failed attempts.
//! - [`LinkState::Steady`] — established and healthy; the normal
//!   maintenance path (blockage handling, mobility tracking) runs.
//! - [`LinkState::Degraded`] — established but persistently well below the
//!   healthy reference; re-training is scheduled with backoff, and once the
//!   retry budget is exhausted the controller falls back to a wide beam.
//! - [`LinkState::Outage`] — below the decode threshold; no data flows;
//!   capped, backed-off re-training attempts try to bring the link back.
//! - [`LinkState::Recovering`] — a re-training attempt is executing this
//!   round; resolves to `Steady` on success or back to the degraded/outage
//!   episode (with a longer backoff) on failure.

/// Lifecycle state of one link. Payload fields carry episode bookkeeping:
/// when a degradation/outage began, or which retry attempt is running.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkState {
    /// No link established yet; training scans run with backoff.
    Acquiring,
    /// Established and healthy.
    Steady,
    /// Established but persistently degraded since `since_s`.
    Degraded {
        /// When the degradation episode began, seconds.
        since_s: f64,
    },
    /// Below the decode threshold since `since_s`; no data flows.
    Outage {
        /// When the outage began, seconds.
        since_s: f64,
    },
    /// Re-training attempt `attempt` (1-based within the episode) is
    /// executing.
    Recovering {
        /// 1-based attempt number within the current episode.
        attempt: u32,
    },
}

/// State discriminant without payloads — the unit of the legality table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkStateKind {
    /// See [`LinkState::Acquiring`].
    Acquiring,
    /// See [`LinkState::Steady`].
    Steady,
    /// See [`LinkState::Degraded`].
    Degraded,
    /// See [`LinkState::Outage`].
    Outage,
    /// See [`LinkState::Recovering`].
    Recovering,
}

impl LinkStateKind {
    /// All states, for exhaustive table tests.
    pub const ALL: [LinkStateKind; 5] = [
        LinkStateKind::Acquiring,
        LinkStateKind::Steady,
        LinkStateKind::Degraded,
        LinkStateKind::Outage,
        LinkStateKind::Recovering,
    ];
}

impl LinkStateKind {
    /// Stable lowercase name (trace/CSV labels).
    pub fn name(self) -> &'static str {
        match self {
            LinkStateKind::Acquiring => "acquiring",
            LinkStateKind::Steady => "steady",
            LinkStateKind::Degraded => "degraded",
            LinkStateKind::Outage => "outage",
            LinkStateKind::Recovering => "recovering",
        }
    }

    /// Inverse of [`LinkStateKind::name`]: the stable serde names history
    /// lines are written with. `None` for anything else — callers decide
    /// whether an unknown name (a newer writer) is a skip or an error.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for LinkStateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl LinkState {
    /// The payload-free discriminant.
    pub fn kind(&self) -> LinkStateKind {
        match self {
            LinkState::Acquiring => LinkStateKind::Acquiring,
            LinkState::Steady => LinkStateKind::Steady,
            LinkState::Degraded { .. } => LinkStateKind::Degraded,
            LinkState::Outage { .. } => LinkStateKind::Outage,
            LinkState::Recovering { .. } => LinkStateKind::Recovering,
        }
    }

    /// True when a multi-beam is live (data may flow, possibly degraded).
    pub fn is_established(&self) -> bool {
        !matches!(self, LinkState::Acquiring)
    }
}

/// Whether the machine may move from `from` to `to` (self-loops are legal
/// only where listed; payload-only changes are not transitions).
pub fn is_legal_transition(from: LinkStateKind, to: LinkStateKind) -> bool {
    use LinkStateKind::*;
    matches!(
        (from, to),
        (Acquiring, Acquiring)      // failed initial scan, retried with backoff
            | (Acquiring, Steady)   // initial establishment
            | (Steady, Steady)      // manual re-establishment
            | (Steady, Degraded)    // persistent degradation
            | (Steady, Outage)      // SNR collapse
            | (Steady, Recovering)  // unexplained collapse: immediate re-train
            | (Degraded, Steady)    // healed (channel or retrain)
            | (Degraded, Outage)    // degradation deepened
            | (Degraded, Recovering)
            | (Outage, Steady)      // healed
            | (Outage, Degraded)    // partial recovery
            | (Outage, Recovering)
            | (Recovering, Steady)  // retrain succeeded
            | (Recovering, Degraded) // retrain failed / budget exhausted
            | (Recovering, Outage) // retrain failed, still dark
    )
}

/// True when `kind` has at least one legal outgoing edge — the "machine
/// never wedges" predicate. Every state in today's table has an exit; the
/// predicate exists so run-level oracles (the scenario fuzzer, the
/// `machine_never_wedges` property test) assert it against the table
/// instead of hard-coding the table's current shape.
pub fn has_legal_exit(kind: LinkStateKind) -> bool {
    LinkStateKind::ALL
        .into_iter()
        .any(|to| is_legal_transition(kind, to))
}

/// Checks a recorded transition tape against the lifecycle contract: every
/// edge is legal under [`is_legal_transition`], consecutive transitions
/// chain (`to` of one is `from` of the next), timestamps never run
/// backwards, and the final state is not wedged ([`has_legal_exit`]).
///
/// This is the run-level extension of the unit-tape `machine_never_wedges`
/// property: the scenario fuzzer feeds it the full transition log of a
/// simulated run (the sim crate's `RunResult::transitions`) so a lifecycle
/// bug that only manifests under a particular channel/fault history still
/// surfaces as a typed oracle failure. An empty tape is trivially legal.
pub fn check_transition_tape<'a, I>(tape: I) -> Result<(), String>
where
    I: IntoIterator<Item = &'a Transition>,
{
    let mut prev: Option<&Transition> = None;
    for tr in tape {
        if !is_legal_transition(tr.from.kind(), tr.to.kind()) {
            return Err(format!(
                "illegal transition {} -> {} via {:?} at t={}",
                tr.from.kind(),
                tr.to.kind(),
                tr.cause,
                tr.t_s
            ));
        }
        if let Some(p) = prev {
            if p.to.kind() != tr.from.kind() {
                return Err(format!(
                    "transition chain broken: {} -> {} at t={} followed by {} -> {} at t={}",
                    p.from.kind(),
                    p.to.kind(),
                    p.t_s,
                    tr.from.kind(),
                    tr.to.kind(),
                    tr.t_s
                ));
            }
            if tr.t_s < p.t_s {
                return Err(format!(
                    "transition stamped backwards in time: t={} after t={}",
                    tr.t_s, p.t_s
                ));
            }
        }
        if !has_legal_exit(tr.to.kind()) {
            return Err(format!(
                "machine wedged: {} has no legal exits (entered at t={})",
                tr.to.kind(),
                tr.t_s
            ));
        }
        prev = Some(tr);
    }
    Ok(())
}

/// Why a transition fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransitionCause {
    /// A training scan produced a healthy link.
    Established,
    /// A training scan found no usable link (Acquiring self-loop).
    AcquireFailed,
    /// SNR fell below the outage threshold.
    SnrCollapsed,
    /// SNR sat well below the healthy reference for too many rounds.
    DegradationPersisted,
    /// The channel healed on its own (blockage passed, beams readmitted).
    LinkRecovered,
    /// Out of outage but still well below the healthy reference.
    PartialRecovery,
    /// Backoff elapsed; a re-training attempt starts.
    RetrainScheduled,
    /// Conditions improved markedly over the episode floor; re-train now.
    ConditionsImproved,
    /// The re-training attempt failed; backing off.
    RetrainFailed,
    /// The episode's retry budget is spent; wide-beam fallback engages.
    RetryBudgetExhausted,
}

impl TransitionCause {
    /// Every cause, for exhaustive table tests and name round-trips.
    pub const ALL: [TransitionCause; 10] = [
        TransitionCause::Established,
        TransitionCause::AcquireFailed,
        TransitionCause::SnrCollapsed,
        TransitionCause::DegradationPersisted,
        TransitionCause::LinkRecovered,
        TransitionCause::PartialRecovery,
        TransitionCause::RetrainScheduled,
        TransitionCause::ConditionsImproved,
        TransitionCause::RetrainFailed,
        TransitionCause::RetryBudgetExhausted,
    ];

    /// Stable kebab-case serde name. These are a wire format: state
    /// history lines (`StateHandler::history_json`) and the admin CLI's
    /// transition tapes are diffed across binary versions, so renaming a
    /// variant must not rename its serialized form.
    pub fn name(self) -> &'static str {
        match self {
            TransitionCause::Established => "established",
            TransitionCause::AcquireFailed => "acquire-failed",
            TransitionCause::SnrCollapsed => "snr-collapsed",
            TransitionCause::DegradationPersisted => "degradation-persisted",
            TransitionCause::LinkRecovered => "link-recovered",
            TransitionCause::PartialRecovery => "partial-recovery",
            TransitionCause::RetrainScheduled => "retrain-scheduled",
            TransitionCause::ConditionsImproved => "conditions-improved",
            TransitionCause::RetrainFailed => "retrain-failed",
            TransitionCause::RetryBudgetExhausted => "retry-budget-exhausted",
        }
    }

    /// Inverse of [`TransitionCause::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.name() == name)
    }

    /// True for the causes that represent a failed attempt to leave a
    /// bad state (the handler's per-resource exit-failure counter).
    pub fn is_exit_failure(self) -> bool {
        matches!(
            self,
            TransitionCause::AcquireFailed
                | TransitionCause::RetrainFailed
                | TransitionCause::RetryBudgetExhausted
        )
    }
}

impl std::fmt::Display for TransitionCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded state change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Transition {
    /// When it happened (front-end clock), seconds.
    pub t_s: f64,
    /// State before.
    pub from: LinkState,
    /// State after.
    pub to: LinkState,
    /// Why.
    pub cause: TransitionCause,
}

/// Signals the controller feeds the machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkSignal {
    /// A full training scan finished. `ok` means viable paths were found
    /// *and* the established link clears the outage threshold; `snr_db` is
    /// the post-establishment wideband SNR (−∞ if nothing was found).
    EstablishResult {
        /// Scan produced a usable link.
        ok: bool,
        /// Post-establishment SNR, dB.
        snr_db: f64,
    },
    /// One maintenance round measured the live link.
    SnrReport {
        /// Wideband SNR this round, dB.
        snr_db: f64,
        /// The healthy reference (best establishment SNR), dB.
        ref_db: f64,
        /// An active beam shows a deep power drop that blockage/mobility
        /// classification cannot explain — maintenance is lost; only a
        /// full re-train can help. Grants the episode's *first* retry
        /// immediately (§8 "tracking re-calibration"); later retries still
        /// back off.
        unexplained_drop: bool,
    },
}

/// Retry, backoff, and threshold knobs of the lifecycle machine.
#[derive(Clone, Copy, Debug)]
pub struct LifecycleConfig {
    /// SNR below this is an outage, dB (mirrors the controller's decode
    /// threshold).
    pub outage_snr_db: f64,
    /// Hysteresis above the outage threshold required to leave `Outage`, dB.
    pub outage_exit_margin_db: f64,
    /// `snr < ref − degraded_drop_db` counts as a degraded round.
    pub degraded_drop_db: f64,
    /// Consecutive degraded rounds before `Steady → Degraded`.
    pub degraded_after_rounds: usize,
    /// Re-training attempts per degradation/outage episode before the
    /// wide-beam fallback engages.
    pub max_retrain_attempts: u32,
    /// Delay before the episode's first re-training attempt, seconds; it
    /// doubles per failed attempt.
    pub backoff_base_s: f64,
    /// Backoff ceiling, seconds — also the heartbeat cadence of the
    /// post-exhaustion safety-net retries.
    pub backoff_max_s: f64,
    /// SNR improvement over the episode's floor that re-arms an immediate
    /// re-training attempt (the world visibly changed), dB.
    pub improve_rearm_db: f64,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        Self {
            outage_snr_db: 6.0,
            outage_exit_margin_db: 2.0,
            degraded_drop_db: 8.0,
            degraded_after_rounds: 12,
            max_retrain_attempts: 4,
            // First retry waits out transient dips (blockage ramp edges,
            // beam-readmission glitches self-heal within ~2–4 maintenance
            // rounds); only a *sustained* outage is worth a 32 ms scan.
            backoff_base_s: 0.12,
            backoff_max_s: 0.4,
            improve_rearm_db: 8.0,
        }
    }
}

impl LifecycleConfig {
    /// Validates invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.backoff_base_s <= 0.0 || self.backoff_max_s < self.backoff_base_s {
            return Err("backoff window must satisfy 0 < base <= max".into());
        }
        if self.max_retrain_attempts == 0 {
            return Err("max_retrain_attempts must be positive".into());
        }
        if self.degraded_after_rounds == 0 {
            return Err("degraded_after_rounds must be positive".into());
        }
        if self.degraded_drop_db <= 0.0 || self.improve_rearm_db <= 0.0 {
            return Err("degradation thresholds must be positive".into());
        }
        Ok(())
    }
}

/// The lifecycle machine: current state, transition log, and retry/backoff
/// bookkeeping. [`LinkLifecycle::apply`] is the **only** place the state is
/// mutated.
#[derive(Clone, Debug)]
pub struct LinkLifecycle {
    cfg: LifecycleConfig,
    state: LinkState,
    log: Vec<Transition>,
    /// Earliest time the next training scan may start, seconds.
    next_attempt_s: f64,
    /// Scan attempts consumed in the current episode (or while acquiring).
    attempts: u32,
    /// Consecutive degraded rounds observed in `Steady`.
    low_rounds: usize,
    /// Worst SNR seen in the current degraded/outage episode, dB.
    episode_floor_db: f64,
    /// Where a failed `Recovering` attempt falls back to.
    episode: Option<(LinkStateKind, f64)>,
    /// Wide-beam fallback engaged (set on `RetryBudgetExhausted`, cleared
    /// on reaching `Steady`).
    fallback_active: bool,
    /// Total training scans signalled over the lifetime (observability).
    scans: u64,
    /// Telemetry handle: transitions and backoff decisions are recorded at
    /// the single mutation point. Disabled (free) by default.
    #[cfg(feature = "telemetry")]
    tracer: mmwave_telemetry::Tracer,
}

impl LinkLifecycle {
    /// A fresh machine in `Acquiring`; the first scan may start at once.
    pub fn new(cfg: LifecycleConfig) -> Self {
        cfg.validate().expect("invalid lifecycle configuration");
        Self {
            cfg,
            state: LinkState::Acquiring,
            log: Vec::new(),
            next_attempt_s: 0.0,
            attempts: 0,
            low_rounds: 0,
            episode_floor_db: f64::INFINITY,
            episode: None,
            fallback_active: false,
            scans: 0,
            #[cfg(feature = "telemetry")]
            tracer: mmwave_telemetry::Tracer::disabled(),
        }
    }

    /// Installs a telemetry tracer; transitions and retry/backoff
    /// decisions will be recorded as trace events. Compiled to a no-op
    /// without the `telemetry` feature.
    pub fn set_tracer(&mut self, tracer: mmwave_telemetry::Tracer) {
        #[cfg(feature = "telemetry")]
        {
            self.tracer = tracer;
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = tracer;
    }

    /// Current state.
    pub fn state(&self) -> LinkState {
        self.state
    }

    /// Configuration accessor.
    pub fn config(&self) -> &LifecycleConfig {
        &self.cfg
    }

    /// Wide-beam fallback engaged?
    pub fn fallback_active(&self) -> bool {
        self.fallback_active
    }

    /// The transition log accumulated so far.
    pub fn log(&self) -> &[Transition] {
        &self.log
    }

    /// Moves the accumulated transitions onto the end of `out`, leaving
    /// the log empty with its capacity kept, so the transitions logged
    /// after a drain allocate nothing.
    pub fn drain_log_into(&mut self, out: &mut Vec<Transition>) {
        out.append(&mut self.log);
    }

    /// True when the controller should run a training scan this round:
    /// either an acquisition attempt whose backoff has elapsed, or a
    /// scheduled `Recovering` attempt.
    pub fn should_scan(&self, t_s: f64) -> bool {
        match self.state {
            LinkState::Acquiring => t_s >= self.next_attempt_s,
            LinkState::Recovering { .. } => true,
            _ => false,
        }
    }

    /// Current backoff delay for attempt number `attempt` (1-based).
    fn backoff_s(&self, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(30);
        (self.cfg.backoff_base_s * 2f64.powi(exp as i32)).min(self.cfg.backoff_max_s)
    }

    /// **The** transition function — the sole mutation point for
    /// [`LinkState`]. Feeds one signal in; records and returns the
    /// transition, if any.
    // xtask-allow(hot-path-closure): the telemetry-gated transition strings format only when the telemetry feature (and a tracer) is active; the default build compiles them out
    pub fn apply(&mut self, sig: LinkSignal, t_s: f64) -> Option<Transition> {
        let from = self.state;
        #[cfg(feature = "telemetry")]
        let next_attempt_before = self.next_attempt_s;
        // An unexplained deep drop warrants an immediate first retry —
        // maintenance has lost the plot and waiting cannot help.
        let urgent = matches!(
            sig,
            LinkSignal::SnrReport {
                unexplained_drop: true,
                ..
            }
        );
        let decided: Option<(LinkState, TransitionCause)> = match (from, sig) {
            // ---- training scan outcomes --------------------------------
            (state, LinkSignal::EstablishResult { ok, snr_db }) => {
                self.scans += 1;
                if ok {
                    Some((LinkState::Steady, TransitionCause::Established))
                } else {
                    self.attempts += 1;
                    self.next_attempt_s = t_s + self.backoff_s(self.attempts);
                    // (The scan's SNR is deliberately NOT folded into the
                    // episode floor: the floor tracks live-link
                    // measurements, and a failed scan's placeholder value
                    // would make any later report look like a huge
                    // "improvement".)
                    let _ = snr_db;
                    match state {
                        LinkState::Acquiring => {
                            Some((LinkState::Acquiring, TransitionCause::AcquireFailed))
                        }
                        LinkState::Recovering { attempt } => {
                            let (fallback_kind, since_s) =
                                self.episode.unwrap_or((LinkStateKind::Degraded, t_s));
                            if attempt >= self.cfg.max_retrain_attempts {
                                // Budget spent: degrade to the wide-beam
                                // fallback; the safety-net heartbeat keeps
                                // retrying at the backoff ceiling.
                                self.next_attempt_s = t_s + self.cfg.backoff_max_s;
                                Some((
                                    LinkState::Degraded { since_s },
                                    TransitionCause::RetryBudgetExhausted,
                                ))
                            } else {
                                let to = match fallback_kind {
                                    LinkStateKind::Outage => LinkState::Outage { since_s },
                                    _ => LinkState::Degraded { since_s },
                                };
                                Some((to, TransitionCause::RetrainFailed))
                            }
                        }
                        // A manual re-establishment that failed from an
                        // established state: stay put, backoff updated.
                        _ => None,
                    }
                }
            }

            // ---- maintenance-round measurements ------------------------
            (LinkState::Acquiring, LinkSignal::SnrReport { .. }) => None,
            (LinkState::Steady, LinkSignal::SnrReport { snr_db, ref_db, .. }) => {
                if snr_db < self.cfg.outage_snr_db {
                    if urgent {
                        // Fresh collapse with an unexplained deep per-beam
                        // drop: maintenance cannot help — re-train this
                        // round (§8). Only a *fresh* episode gets this;
                        // failed attempts fall back to Outage and pace all
                        // further retries by the backoff schedule.
                        Some((
                            LinkState::Recovering { attempt: 1 },
                            TransitionCause::SnrCollapsed,
                        ))
                    } else {
                        Some((
                            LinkState::Outage { since_s: t_s },
                            TransitionCause::SnrCollapsed,
                        ))
                    }
                } else if snr_db < ref_db - self.cfg.degraded_drop_db {
                    self.low_rounds += 1;
                    if self.low_rounds >= self.cfg.degraded_after_rounds {
                        Some((
                            LinkState::Degraded { since_s: t_s },
                            TransitionCause::DegradationPersisted,
                        ))
                    } else {
                        None
                    }
                } else {
                    self.low_rounds = 0;
                    None
                }
            }
            (LinkState::Degraded { since_s }, LinkSignal::SnrReport { snr_db, ref_db, .. }) => {
                if snr_db < self.cfg.outage_snr_db {
                    Some((
                        LinkState::Outage { since_s: t_s },
                        TransitionCause::SnrCollapsed,
                    ))
                } else if snr_db >= ref_db - self.cfg.degraded_drop_db {
                    if self.fallback_active {
                        // The wide-beam fallback measuring healthy does not
                        // validate the stale multi-beam — exit only through
                        // a successful re-train.
                        Some((
                            LinkState::Recovering { attempt: 1 },
                            TransitionCause::ConditionsImproved,
                        ))
                    } else {
                        Some((LinkState::Steady, TransitionCause::LinkRecovered))
                    }
                } else {
                    self.episode_floor_db = self.episode_floor_db.min(snr_db);
                    self.schedule_retrain(snr_db, t_s, since_s, LinkStateKind::Degraded)
                }
            }
            (LinkState::Outage { since_s }, LinkSignal::SnrReport { snr_db, ref_db, .. }) => {
                let exit = self.cfg.outage_snr_db + self.cfg.outage_exit_margin_db;
                if snr_db >= exit {
                    if self.fallback_active {
                        Some((
                            LinkState::Recovering { attempt: 1 },
                            TransitionCause::ConditionsImproved,
                        ))
                    } else if snr_db >= ref_db - self.cfg.degraded_drop_db {
                        Some((LinkState::Steady, TransitionCause::LinkRecovered))
                    } else {
                        Some((
                            LinkState::Degraded { since_s: t_s },
                            TransitionCause::PartialRecovery,
                        ))
                    }
                } else {
                    self.episode_floor_db = self.episode_floor_db.min(snr_db);
                    self.schedule_retrain(snr_db, t_s, since_s, LinkStateKind::Outage)
                }
            }
            // A measurement while a scan is in flight carries no new
            // information; the scan outcome decides.
            (LinkState::Recovering { .. }, LinkSignal::SnrReport { .. }) => None,
        };

        let (to, cause) = decided?;
        debug_assert!(
            is_legal_transition(from.kind(), to.kind()),
            "illegal transition {:?} -> {:?} ({:?})",
            from.kind(),
            to.kind(),
            cause
        );
        // Entry bookkeeping.
        match to {
            LinkState::Steady => {
                self.attempts = 0;
                self.low_rounds = 0;
                self.episode_floor_db = f64::INFINITY;
                self.episode = None;
                self.fallback_active = false;
            }
            LinkState::Degraded { since_s } | LinkState::Outage { since_s } => {
                let kind = to.kind();
                let fresh_episode = self.episode.is_none();
                if fresh_episode {
                    // Entering an episode from Steady: arm the first retry.
                    // The backoff delay rides out transient dips that heal
                    // on their own; an unexplained collapse re-trains at
                    // the next opportunity instead.
                    self.attempts = 0;
                    self.episode_floor_db = f64::INFINITY;
                    self.next_attempt_s = if urgent {
                        t_s
                    } else {
                        t_s + self.cfg.backoff_base_s
                    };
                }
                self.episode = Some((kind, since_s));
                if cause == TransitionCause::RetryBudgetExhausted {
                    self.fallback_active = true;
                }
            }
            LinkState::Recovering { .. } => {
                // Improvement-triggered attempts restart the budget.
                if cause == TransitionCause::ConditionsImproved {
                    self.attempts = 0;
                    self.episode_floor_db = f64::INFINITY;
                }
                // An immediate re-train on a fresh collapse opens a new
                // outage episode — a failed attempt falls back there.
                if from == LinkState::Steady {
                    self.attempts = 0;
                    self.episode_floor_db = f64::INFINITY;
                    self.episode = Some((LinkStateKind::Outage, t_s));
                }
            }
            LinkState::Acquiring => {}
        }
        self.state = to;
        let tr = Transition {
            t_s,
            from,
            to,
            cause,
        };
        self.log.push(tr);
        #[cfg(feature = "telemetry")]
        if self.tracer.wants_events() {
            self.tracer.event(mmwave_telemetry::TraceEvent::Lifecycle {
                t_s,
                from: from.kind().name(),
                to: to.kind().name(),
                cause: format!("{cause:?}"),
            });
            // Every change to the retry clock is a scheduling decision
            // worth a trace line: which attempt was armed and for when.
            if self.next_attempt_s != next_attempt_before {
                self.tracer.event(mmwave_telemetry::TraceEvent::Decision {
                    t_s,
                    what: format!(
                        "retrain attempt {} armed for t={:.3}s (backoff {:.3}s)",
                        self.attempts + 1,
                        self.next_attempt_s,
                        self.next_attempt_s - t_s
                    ),
                });
            }
        }
        Some(tr)
    }

    /// Decides whether a degraded/outage round starts a re-training attempt.
    fn schedule_retrain(
        &self,
        snr_db: f64,
        t_s: f64,
        _since_s: f64,
        _kind: LinkStateKind,
    ) -> Option<(LinkState, TransitionCause)> {
        // The improvement re-arm only applies in the wide-beam fallback —
        // it is the fallback's designed exit path. A normal episode whose
        // SNR is rising is healing on its own (beam readmission, blocker
        // leaving); scanning mid-heal wastes airtime the backoff schedule
        // exists to protect.
        let improved = self.fallback_active
            && self.episode_floor_db.is_finite()
            && snr_db >= self.episode_floor_db + self.cfg.improve_rearm_db;
        if improved {
            return Some((
                LinkState::Recovering { attempt: 1 },
                TransitionCause::ConditionsImproved,
            ));
        }
        if t_s >= self.next_attempt_s {
            return Some((
                LinkState::Recovering {
                    attempt: self.attempts + 1,
                },
                TransitionCause::RetrainScheduled,
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LifecycleConfig {
        LifecycleConfig::default()
    }

    fn est(ok: bool, snr: f64) -> LinkSignal {
        LinkSignal::EstablishResult { ok, snr_db: snr }
    }

    fn snr(snr: f64, r: f64) -> LinkSignal {
        LinkSignal::SnrReport {
            snr_db: snr,
            ref_db: r,
            unexplained_drop: false,
        }
    }

    fn snr_urgent(snr: f64, r: f64) -> LinkSignal {
        LinkSignal::SnrReport {
            snr_db: snr,
            ref_db: r,
            unexplained_drop: true,
        }
    }

    #[test]
    fn acquire_then_steady() {
        let mut lc = LinkLifecycle::new(cfg());
        assert_eq!(lc.state().kind(), LinkStateKind::Acquiring);
        assert!(lc.should_scan(0.0));
        let tr = lc.apply(est(true, 27.0), 0.03).unwrap();
        assert_eq!(tr.cause, TransitionCause::Established);
        assert_eq!(lc.state(), LinkState::Steady);
    }

    #[test]
    fn failed_acquire_backs_off_exponentially() {
        let mut lc = LinkLifecycle::new(cfg());
        let mut t = 0.0;
        let mut gaps = Vec::new();
        for _ in 0..3 {
            assert!(lc.should_scan(t));
            lc.apply(est(false, -60.0), t);
            let next = lc.next_attempt_s;
            gaps.push(next - t);
            assert!(!lc.should_scan(t), "must wait out the backoff");
            t = next;
        }
        assert!(gaps[1] > gaps[0] && gaps[2] > gaps[1], "gaps {gaps:?}");
        assert_eq!(lc.state().kind(), LinkStateKind::Acquiring);
    }

    #[test]
    fn backoff_is_capped() {
        let mut lc = LinkLifecycle::new(cfg());
        let mut t = 0.0;
        for _ in 0..24 {
            lc.apply(est(false, -60.0), t);
            t = lc.next_attempt_s;
        }
        assert!(lc.next_attempt_s - t <= 0.0 + 1e-12);
        let last_gap = {
            let before = t;
            lc.apply(est(false, -60.0), t);
            lc.next_attempt_s - before
        };
        assert!(
            (last_gap - cfg().backoff_max_s).abs() < 1e-9,
            "gap {last_gap}"
        );
    }

    #[test]
    fn snr_collapse_enters_outage_then_bounded_retries() {
        let c = cfg();
        let mut lc = LinkLifecycle::new(c);
        lc.apply(est(true, 27.0), 0.0);
        let tr = lc.apply(snr(-10.0, 27.0), 0.1).unwrap();
        assert_eq!(tr.cause, TransitionCause::SnrCollapsed);
        // Walk time forward through an endless outage; count scans.
        let mut t = 0.1;
        let mut scans = 0;
        for _ in 0..200 {
            t += 0.01;
            if let Some(tr) = lc.apply(snr(-10.0, 27.0), t) {
                if matches!(tr.to, LinkState::Recovering { .. }) {
                    scans += 1;
                    lc.apply(est(false, -60.0), t);
                }
            }
            if t > 2.0 {
                break;
            }
        }
        // 4 budget attempts (20/40/80/160 ms) + ceiling-cadence heartbeats
        // over ~1.9 s: bounded, nothing like one per round.
        assert!(
            (4..=10).contains(&scans),
            "expected bounded retries, got {scans}"
        );
        assert!(lc.fallback_active(), "fallback after budget exhaustion");
    }

    #[test]
    fn unexplained_collapse_retries_immediately_then_backs_off() {
        let c = cfg();
        let mut lc = LinkLifecycle::new(c);
        lc.apply(est(true, 27.0), 0.0);
        // Unexplained fresh collapse: re-train scheduled the same round.
        let tr = lc.apply(snr_urgent(-10.0, 27.0), 0.1).unwrap();
        assert_eq!(tr.cause, TransitionCause::SnrCollapsed);
        assert_eq!(tr.to, LinkState::Recovering { attempt: 1 });
        // The attempt fails: back to Outage, and the next retry must wait
        // out the backoff even with the urgent evidence still present.
        let tr = lc.apply(est(false, -60.0), 0.13).unwrap();
        assert_eq!(tr.cause, TransitionCause::RetrainFailed);
        assert_eq!(tr.to.kind(), LinkStateKind::Outage);
        assert!(lc.apply(snr_urgent(-10.0, 27.0), 0.14).is_none());
        assert!(
            lc.next_attempt_s - 0.13 >= c.backoff_base_s,
            "second attempt must back off"
        );
        // Contrast: an *explained* collapse enters Outage and waits.
        let mut lc2 = LinkLifecycle::new(c);
        lc2.apply(est(true, 27.0), 0.0);
        let tr = lc2.apply(snr(-10.0, 27.0), 0.1).unwrap();
        assert_eq!(tr.to.kind(), LinkStateKind::Outage);
        assert!(lc2.apply(snr(-10.0, 27.0), 0.11).is_none());
    }

    #[test]
    fn improvement_rearms_recovery() {
        let mut lc = LinkLifecycle::new(cfg());
        lc.apply(est(true, 27.0), 0.0);
        lc.apply(snr(-10.0, 27.0), 0.1); // -> Outage
                                         // Exhaust the budget: walk far enough for all backed-off attempts.
        let mut t = 0.1;
        for _ in 0..120 {
            t += 0.02;
            if let Some(tr) = lc.apply(snr(-10.0, 27.0), t) {
                if matches!(tr.to, LinkState::Recovering { .. }) {
                    lc.apply(est(false, -20.0), t);
                }
            }
            if lc.fallback_active() {
                break;
            }
        }
        assert!(lc.fallback_active());
        // SNR jumps well above the episode floor (blockage passed, the wide
        // beam sees something again): immediate re-train even though the
        // heartbeat has not elapsed — and even though the link is still far
        // from healthy.
        let tr = lc.apply(snr(10.0, 27.0), t + 0.01).unwrap();
        assert_eq!(tr.cause, TransitionCause::ConditionsImproved);
        assert_eq!(tr.to, LinkState::Recovering { attempt: 1 });
        // And success clears the fallback.
        lc.apply(est(true, 26.0), t + 0.05);
        assert_eq!(lc.state(), LinkState::Steady);
        assert!(!lc.fallback_active());
    }

    #[test]
    fn persistent_degradation_detected_after_n_rounds() {
        let c = cfg();
        let mut lc = LinkLifecycle::new(c);
        lc.apply(est(true, 27.0), 0.0);
        let mut t = 0.0;
        let mut entered = None;
        for i in 0..(c.degraded_after_rounds + 2) {
            t += 0.01;
            if let Some(tr) = lc.apply(snr(15.0, 27.0), t) {
                entered = Some((i, tr));
                break;
            }
        }
        let (i, tr) = entered.expect("degradation must be detected");
        assert_eq!(i + 1, c.degraded_after_rounds);
        assert_eq!(tr.cause, TransitionCause::DegradationPersisted);
        // Recovery back to Steady once SNR returns.
        let tr = lc.apply(snr(26.0, 27.0), t + 0.01).unwrap();
        assert_eq!(tr.cause, TransitionCause::LinkRecovered);
    }

    #[test]
    fn healthy_rounds_reset_the_degradation_counter() {
        let c = cfg();
        let mut lc = LinkLifecycle::new(c);
        lc.apply(est(true, 27.0), 0.0);
        let mut t = 0.0;
        for round in 0..(4 * c.degraded_after_rounds) {
            t += 0.01;
            // Alternate low/high: never enough consecutive lows.
            let s = if round % 3 == 2 { 26.0 } else { 15.0 };
            assert!(lc.apply(snr(s, 27.0), t).is_none(), "round {round}");
        }
        assert_eq!(lc.state(), LinkState::Steady);
    }

    #[test]
    fn outage_partial_recovery_lands_in_degraded() {
        let mut lc = LinkLifecycle::new(cfg());
        lc.apply(est(true, 27.0), 0.0);
        lc.apply(snr(-10.0, 27.0), 0.1);
        assert_eq!(lc.state().kind(), LinkStateKind::Outage);
        let tr = lc.apply(snr(12.0, 27.0), 0.12).unwrap();
        assert_eq!(tr.cause, TransitionCause::PartialRecovery);
        assert_eq!(tr.to.kind(), LinkStateKind::Degraded);
    }

    #[test]
    fn legality_table_covers_every_state() {
        for from in LinkStateKind::ALL {
            let outgoing: Vec<LinkStateKind> = LinkStateKind::ALL
                .into_iter()
                .filter(|&to| is_legal_transition(from, to))
                .collect();
            assert!(
                !outgoing.is_empty(),
                "{from:?} must have at least one legal outgoing transition"
            );
        }
        // Spot-check forbidden edges.
        assert!(!is_legal_transition(
            LinkStateKind::Steady,
            LinkStateKind::Acquiring
        ));
        assert!(!is_legal_transition(
            LinkStateKind::Recovering,
            LinkStateKind::Acquiring
        ));
        assert!(!is_legal_transition(
            LinkStateKind::Outage,
            LinkStateKind::Acquiring
        ));
        assert!(!is_legal_transition(
            LinkStateKind::Acquiring,
            LinkStateKind::Degraded
        ));
        assert!(!is_legal_transition(
            LinkStateKind::Acquiring,
            LinkStateKind::Outage
        ));
    }

    #[test]
    fn every_logged_transition_is_legal() {
        // Fuzz the machine with a mixed signal tape; every transition the
        // log records must be legal and causally stamped in time order.
        let mut lc = LinkLifecycle::new(cfg());
        let mut t = 0.0;
        for i in 0..500u64 {
            t += 0.005;
            let sig = match i % 7 {
                0 => est(i % 3 == 0, 20.0),
                1 => snr(-20.0, 27.0),
                2 => snr(15.0, 27.0),
                3 => snr(26.0, 27.0),
                4 => snr(4.0, 27.0),
                5 => est(false, -60.0),
                _ => snr(10.0, 27.0),
            };
            lc.apply(sig, t);
        }
        let log = lc.log();
        assert!(!log.is_empty());
        for w in log.windows(2) {
            assert!(w[0].t_s <= w[1].t_s, "log out of order");
            // Consecutive log entries chain: to of one is from of the next.
            assert_eq!(w[0].to, w[1].from, "log must chain");
        }
        for tr in log {
            assert!(
                is_legal_transition(tr.from.kind(), tr.to.kind()),
                "illegal logged transition {tr:?}"
            );
        }
    }

    #[test]
    fn drain_log_empties() {
        let mut lc = LinkLifecycle::new(cfg());
        lc.apply(est(true, 27.0), 0.0);
        assert_eq!(lc.log().len(), 1);
        let mut drained = Vec::new();
        lc.drain_log_into(&mut drained);
        assert_eq!(drained.len(), 1);
        assert!(lc.log().is_empty());
        // The log keeps its capacity for the next transition.
        assert!(lc.log.capacity() >= 1);
    }

    #[test]
    fn serde_names_are_stable_and_round_trip() {
        // These strings are a wire format (history lines, admin tapes):
        // the literals are pinned here so a rename shows up as a test
        // diff, not a silent format change.
        let expected_states = ["acquiring", "steady", "degraded", "outage", "recovering"];
        for (k, want) in LinkStateKind::ALL.into_iter().zip(expected_states) {
            assert_eq!(k.name(), want);
            assert_eq!(LinkStateKind::parse(want), Some(k));
        }
        assert_eq!(LinkStateKind::parse("warp-drive"), None);
        let expected_causes = [
            "established",
            "acquire-failed",
            "snr-collapsed",
            "degradation-persisted",
            "link-recovered",
            "partial-recovery",
            "retrain-scheduled",
            "conditions-improved",
            "retrain-failed",
            "retry-budget-exhausted",
        ];
        for (c, want) in TransitionCause::ALL.into_iter().zip(expected_causes) {
            assert_eq!(c.name(), want);
            assert_eq!(TransitionCause::parse(want), Some(c));
        }
        assert_eq!(TransitionCause::parse("nope"), None);
    }

    #[test]
    fn config_validation() {
        let mut c = cfg();
        c.max_retrain_attempts = 0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.backoff_max_s = 1e-6;
        assert!(c.validate().is_err());
        assert!(cfg().validate().is_ok());
    }
}
