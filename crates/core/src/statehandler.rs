//! Cell-level state ownership: one handler, many UEs, typed intents.
//!
//! A fleet-scale cell serves thousands of UEs whose per-link
//! [`LinkLifecycle`] state must be managed centrally at the array (the
//! architecture multi-array beamforming testbeds converge on: per-user
//! beam state lives in one place, everything else talks to it through a
//! mailbox). This module is that shape:
//!
//! - [`StateHandler`] owns every per-UE [`LinkLifecycle`] in the cell and
//!   is the **only** writer of that state — the same single-writer
//!   discipline the `lifecycle-single-writer` xtask lint enforces for the
//!   state machine itself, lifted one level up.
//! - Peers (the fleet scheduler, probe planner, fault/impairment layers)
//!   never touch a lifecycle. They queue typed [`Intent`]s on an
//!   [`IntentQueue`], and the handler drains the queue once per
//!   [`StateHandler::pass`], applying each intent at its timestamp and
//!   accounting per-resource metrics.
//!
//! Determinism: a pass applies intents in exactly the order they were
//! queued. Lanes (per-UE state) are independent, so any schedule
//! that preserves each UE's own intent order produces bit-identical
//! lifecycle evolutions — the property the fleet's shard-count-invariant
//! digest rests on. Lane lookup is a binary search over a sorted id
//! table, not a hash map, so iteration order is reproducible too.
//!
//! The steady-state pass is allocation-free: the drain buffer is owned by
//! the handler and reused, and lifecycle logs only grow when a transition
//! actually fires.
//!
//! Observability (the operator surface of DESIGN.md §15) rides on the
//! same pass: per-lane [`UeStats`] (state occupancy, time-in-state,
//! exit-failure and retrain churn counters) accumulate unconditionally —
//! they are plain deterministic arithmetic — and project into the
//! `mmwave-telemetry` metrics registry only under the `telemetry`
//! feature, keeping the feature-off build byte-identical. A lane's
//! transition history is its lifecycle's own log, which the run drains
//! into the journal; `mmwave-admin history` replays it from there.

use crate::linkstate::{
    LifecycleConfig, LinkLifecycle, LinkSignal, LinkState, LinkStateKind, Transition,
};
use mmwave_hotpath::hot_path;

/// Identity of one UE within a cell. Cell-local: the fleet layer maps
/// global UE indices onto the ids it registered with the handler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UeId(pub u32);

impl std::fmt::Display for UeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ue{}", self.0)
    }
}

/// What a peer wants the handler to feed a UE's lifecycle. Mirrors
/// [`LinkSignal`] — intents are the *transport* form; the handler is the
/// only code that turns them into signals and applies them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IntentKind {
    /// A training/establishment attempt finished for this UE.
    Establish {
        /// The scan produced a usable link clearing the outage threshold.
        ok: bool,
        /// Post-establishment wideband SNR, dB.
        snr_db: f64,
    },
    /// One maintenance window measured the live link.
    SnrReport {
        /// Wideband SNR over the window, dB.
        snr_db: f64,
        /// Healthy reference (best establishment SNR), dB.
        ref_db: f64,
        /// Maintenance lost the plot (deep unexplained drop).
        unexplained_drop: bool,
    },
}

/// One queued instruction: *which* UE, *when* (front-end clock), *what*.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Intent {
    /// Target UE.
    pub ue: UeId,
    /// Front-end timestamp the signal applies at, seconds.
    pub t_s: f64,
    /// The typed payload.
    pub kind: IntentKind,
}

/// The mailbox between peers and the handler: a FIFO over a reused
/// `Vec`, allocation-free in steady state once it reaches its
/// high-water mark. Peers only ever [`IntentQueue::submit`]; the handler
/// drains everything queued since the last pass.
#[derive(Debug, Default)]
pub struct IntentQueue {
    queue: Vec<Intent>,
}

impl IntentQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues one intent.
    pub fn submit(&mut self, intent: Intent) {
        self.queue.push(intent);
    }

    /// Moves every queued intent into `out` (appending, oldest first) and
    /// leaves the queue empty: submission order is the handler's
    /// determinism contract.
    #[hot_path]
    fn drain_into(&mut self, out: &mut Vec<Intent>) {
        out.append(&mut self.queue);
    }
}

/// Number of lifecycle state kinds, the width of the per-state arrays on
/// [`UeStats`]. Indexed by position in [`LinkStateKind::ALL`].
pub const STATE_KINDS: usize = LinkStateKind::ALL.len();

/// Index of `kind` into the per-state arrays on [`UeStats`] (its position
/// in [`LinkStateKind::ALL`]).
pub fn state_kind_index(kind: LinkStateKind) -> usize {
    match kind {
        LinkStateKind::Acquiring => 0,
        LinkStateKind::Steady => 1,
        LinkStateKind::Degraded => 2,
        LinkStateKind::Outage => 3,
        LinkStateKind::Recovering => 4,
    }
}

/// Full per-resource accounting the handler accumulates on every pass —
/// the metric path under the `mmwave-telemetry` metrics registry. All
/// plain deterministic
/// arithmetic over intent timestamps (front-end clock): no wall clock
/// ever enters, so the values are bit-reproducible across runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UeStats {
    /// Intents applied to this UE's lifecycle.
    pub intents: u64,
    /// Transitions those intents fired.
    pub transitions: u64,
    /// Passes this UE ended in an established state (`Steady`/`Degraded`).
    pub established_passes: u64,
    /// Handler passes that touched this UE at all.
    pub active_passes: u64,
    /// Passes this UE ended in each state ([`state_kind_index`] order) —
    /// the state-occupancy distribution.
    pub state_passes: [u64; STATE_KINDS],
    /// Front-end time integrated per state, seconds: each applied intent
    /// charges the interval since the lane's previous intent to the state
    /// the lane was in *before* the intent applied.
    pub time_in_state_s: [f64; STATE_KINDS],
    /// Transitions whose cause is a failed attempt to leave a bad state
    /// ([`crate::linkstate::TransitionCause::is_exit_failure`]).
    pub exit_failures: u64,
    /// Entries into `Recovering` — the retrain churn counter.
    pub retrains: u64,
}

/// What one [`StateHandler::pass`] did, in aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Pass sequence number (0-based).
    pub pass: u64,
    /// Intents drained and applied.
    pub applied: u64,
    /// Transitions fired across all lanes.
    pub transitions: u64,
    /// Intents addressed to an unregistered UE (dropped, never applied).
    pub rejected: u64,
}

/// One UE's state lane: the lifecycle plus its running stats.
#[derive(Debug)]
struct Lane {
    ue: UeId,
    lifecycle: LinkLifecycle,
    stats: UeStats,
    /// Front-end timestamp of the last applied intent (time-in-state
    /// integration anchor).
    last_t_s: Option<f64>,
    touched: bool,
}

/// The single writer of per-UE lifecycle state in a cell.
///
/// Construction registers the full UE set up front; [`StateHandler::pass`]
/// then drains an [`IntentQueue`] and applies each intent through
/// [`LinkLifecycle::apply`] — the state machine's own sole mutation point
/// — so the whole cell preserves the single-transition-point invariant of
/// DESIGN.md §6 at fleet scale.
#[derive(Debug)]
pub struct StateHandler {
    /// Sorted by id: lookup is a deterministic binary search.
    lanes: Vec<Lane>,
    passes: u64,
    /// Reused drain buffer (steady-state passes never allocate).
    scratch: Vec<Intent>,
}

impl StateHandler {
    /// Registers `ues` (deduplicated, sorted internally) with one fresh
    /// lifecycle per UE under a shared configuration.
    pub fn new(ues: impl IntoIterator<Item = UeId>, cfg: LifecycleConfig) -> Self {
        let mut ids: Vec<UeId> = ues.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let lanes = ids
            .into_iter()
            .map(|ue| Lane {
                ue,
                lifecycle: LinkLifecycle::new(cfg),
                stats: UeStats::default(),
                last_t_s: None,
                touched: false,
            })
            .collect();
        Self {
            lanes,
            passes: 0,
            scratch: Vec::new(),
        }
    }

    /// Registered UE count.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True when no UE is registered.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Passes executed so far.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    fn lane_idx(&self, ue: UeId) -> Option<usize> {
        self.lanes.binary_search_by_key(&ue, |l| l.ue).ok()
    }

    /// Current lifecycle state of a UE (`None` for unregistered ids).
    pub fn state(&self, ue: UeId) -> Option<LinkState> {
        self.lane_idx(ue).map(|i| self.lanes[i].lifecycle.state())
    }

    /// Full per-UE stats accumulated so far (`None` for unregistered
    /// ids): occupancy, time-in-state, exit failures, retrain churn.
    pub fn stats(&self, ue: UeId) -> Option<&UeStats> {
        self.lane_idx(ue).map(|i| &self.lanes[i].stats)
    }

    /// Drains one UE's accumulated transitions (end-of-run export).
    pub fn drain_transitions(&mut self, ue: UeId) -> Vec<Transition> {
        let mut out = Vec::new();
        if let Some(i) = self.lane_idx(ue) {
            self.lanes[i].lifecycle.drain_log_into(&mut out);
        }
        out
    }

    /// One handler pass: drains everything queued in `io`, applies each
    /// intent to its lane in FIFO order, and updates per-resource metrics.
    /// The only call site in the cell that mutates lifecycle state.
    #[hot_path]
    pub fn pass(&mut self, io: &mut IntentQueue) -> PassStats {
        let mut batch = std::mem::take(&mut self.scratch);
        batch.clear();
        io.drain_into(&mut batch);
        let mut stats = PassStats {
            pass: self.passes,
            ..PassStats::default()
        };
        for lane in &mut self.lanes {
            lane.touched = false;
        }
        for intent in &batch {
            let Some(i) = self.lane_idx(intent.ue) else {
                stats.rejected += 1;
                continue;
            };
            let lane = &mut self.lanes[i];
            let sig = match intent.kind {
                IntentKind::Establish { ok, snr_db } => LinkSignal::EstablishResult { ok, snr_db },
                IntentKind::SnrReport {
                    snr_db,
                    ref_db,
                    unexplained_drop,
                } => LinkSignal::SnrReport {
                    snr_db,
                    ref_db,
                    unexplained_drop,
                },
            };
            // Charge the interval since the lane's previous intent to the
            // state it is leaving (front-end clock; clamped so a
            // same-stamp batch never integrates negative time).
            let before = state_kind_index(lane.lifecycle.state().kind());
            debug_assert!(before < lane.stats.time_in_state_s.len());
            if let Some(prev) = lane.last_t_s {
                lane.stats.time_in_state_s[before] += (intent.t_s - prev).max(0.0);
            }
            lane.last_t_s = Some(intent.t_s);
            let fired = lane.lifecycle.apply(sig, intent.t_s);
            lane.stats.intents += 1;
            lane.touched = true;
            stats.applied += 1;
            if let Some(tr) = fired {
                lane.stats.transitions += 1;
                stats.transitions += 1;
                if tr.cause.is_exit_failure() {
                    lane.stats.exit_failures += 1;
                }
                if matches!(tr.to, LinkState::Recovering { .. }) {
                    lane.stats.retrains += 1;
                }
            }
        }
        for lane in &mut self.lanes {
            if lane.touched {
                lane.stats.active_passes += 1;
                if lane.lifecycle.state().is_established() {
                    lane.stats.established_passes += 1;
                }
                lane.stats.state_passes[state_kind_index(lane.lifecycle.state().kind())] += 1;
            }
        }
        self.passes += 1;
        self.scratch = batch;
        stats
    }
}

/// Registry projection of the per-lane stats. Gated: the byte-identity
/// crates may only touch the metrics registry under the `telemetry`
/// feature (the `telemetry-hygiene` xtask lint enforces it), so the
/// feature-off build carries no registry code at all.
#[cfg(feature = "telemetry")]
impl StateHandler {
    /// Publishes every lane's [`UeStats`] into `reg` as absolute values
    /// (counters set, not added — re-publishing after later passes
    /// overwrites, so a capture layer may call this as often as it
    /// likes). Resources are named `ue{n}`; per-state metrics carry the
    /// stable state name as a `:{state}` suffix.
    pub fn publish_metrics(&self, reg: &mut mmwave_telemetry::MetricsRegistry) {
        for lane in &self.lanes {
            let res = reg.resource(&lane.ue.to_string());
            let s = &lane.stats;
            for (metric, v) in [
                ("intents", s.intents),
                ("transitions", s.transitions),
                ("established_passes", s.established_passes),
                ("active_passes", s.active_passes),
                ("exit_failures", s.exit_failures),
                ("retrains", s.retrains),
            ] {
                let id = reg.counter(res, metric);
                reg.set_counter(id, v);
            }
            for (i, kind) in LinkStateKind::ALL.into_iter().enumerate() {
                let id = reg.counter(res, &format!("state_passes:{}", kind.name()));
                reg.set_counter(id, s.state_passes[i]);
                let id = reg.gauge(res, &format!("time_in_state_s:{}", kind.name()));
                reg.set_gauge(id, s.time_in_state_s[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linkstate::LinkStateKind;

    fn handler(n: u32) -> StateHandler {
        StateHandler::new((0..n).map(UeId), LifecycleConfig::default())
    }

    fn establish(io: &mut IntentQueue, ue: u32, t_s: f64, snr_db: f64) {
        io.submit(Intent {
            ue: UeId(ue),
            t_s,
            kind: IntentKind::Establish {
                ok: snr_db > 6.0,
                snr_db,
            },
        });
    }

    #[test]
    fn establishes_independent_lanes() {
        let mut h = handler(3);
        let mut io = IntentQueue::new();
        establish(&mut io, 0, 0.01, 25.0);
        establish(&mut io, 2, 0.01, -60.0);
        let stats = h.pass(&mut io);
        assert_eq!(stats.applied, 2);
        assert_eq!(stats.transitions, 2); // Established + AcquireFailed self-loop.
        assert_eq!(h.state(UeId(0)).unwrap().kind(), LinkStateKind::Steady);
        assert_eq!(h.state(UeId(1)).unwrap().kind(), LinkStateKind::Acquiring);
        assert_eq!(h.state(UeId(2)).unwrap().kind(), LinkStateKind::Acquiring);
        assert_eq!(h.stats(UeId(0)).unwrap().established_passes, 1);
        assert_eq!(h.stats(UeId(1)).unwrap().active_passes, 0);
    }

    #[test]
    fn snr_collapse_reaches_outage_via_handler_only() {
        let mut h = handler(1);
        let mut io = IntentQueue::new();
        establish(&mut io, 0, 0.01, 25.0);
        h.pass(&mut io);
        io.submit(Intent {
            ue: UeId(0),
            t_s: 0.05,
            kind: IntentKind::SnrReport {
                snr_db: -10.0,
                ref_db: 25.0,
                unexplained_drop: false,
            },
        });
        let stats = h.pass(&mut io);
        assert_eq!(stats.transitions, 1);
        assert_eq!(h.state(UeId(0)).unwrap().kind(), LinkStateKind::Outage);
        assert_eq!(h.stats(UeId(0)).unwrap().intents, 2);
        assert_eq!(h.drain_transitions(UeId(0)).len(), 2);
    }

    #[test]
    fn unknown_ue_is_rejected_not_applied() {
        let mut h = handler(1);
        let mut io = IntentQueue::new();
        establish(&mut io, 9, 0.01, 25.0);
        let stats = h.pass(&mut io);
        assert_eq!(stats.applied, 0);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn pass_order_within_a_lane_is_fifo() {
        // Establish then collapse in one batch: the lane must end in
        // Outage (collapse applied second), not Steady.
        let mut h = handler(1);
        let mut io = IntentQueue::new();
        establish(&mut io, 0, 0.01, 25.0);
        io.submit(Intent {
            ue: UeId(0),
            t_s: 0.02,
            kind: IntentKind::SnrReport {
                snr_db: -10.0,
                ref_db: 25.0,
                unexplained_drop: false,
            },
        });
        h.pass(&mut io);
        assert_eq!(h.state(UeId(0)).unwrap().kind(), LinkStateKind::Outage);
    }

    #[test]
    fn interleaving_across_lanes_does_not_change_outcomes() {
        // Same per-UE intent sequences, different cross-UE interleavings:
        // identical per-lane end states and logs (the shard-invariance
        // property at the handler level).
        let run = |swap: bool| {
            let mut h = handler(2);
            let mut io = IntentQueue::new();
            let a = Intent {
                ue: UeId(0),
                t_s: 0.01,
                kind: IntentKind::Establish {
                    ok: true,
                    snr_db: 25.0,
                },
            };
            let b = Intent {
                ue: UeId(1),
                t_s: 0.01,
                kind: IntentKind::Establish {
                    ok: true,
                    snr_db: 18.0,
                },
            };
            if swap {
                io.submit(b);
                io.submit(a);
            } else {
                io.submit(a);
                io.submit(b);
            }
            h.pass(&mut io);
            for ue in [UeId(0), UeId(1)] {
                io.submit(Intent {
                    ue,
                    t_s: 0.04,
                    kind: IntentKind::SnrReport {
                        snr_db: 24.0,
                        ref_db: 25.0,
                        unexplained_drop: false,
                    },
                });
            }
            h.pass(&mut io);
            (
                h.drain_transitions(UeId(0)),
                h.drain_transitions(UeId(1)),
                h.stats(UeId(0)).cloned().unwrap(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn steady_state_pass_is_reusable_without_growth() {
        let mut h = handler(4);
        let mut io = IntentQueue::new();
        for ue in 0..4 {
            establish(&mut io, ue, 0.01, 25.0);
        }
        h.pass(&mut io);
        for p in 1..50u64 {
            for ue in 0..4 {
                io.submit(Intent {
                    ue: UeId(ue),
                    t_s: 0.01 + p as f64 * 0.025,
                    kind: IntentKind::SnrReport {
                        snr_db: 24.0,
                        ref_db: 25.0,
                        unexplained_drop: false,
                    },
                });
            }
            let stats = h.pass(&mut io);
            assert_eq!(stats.applied, 4);
            assert_eq!(stats.transitions, 0);
        }
        assert_eq!(h.passes(), 50);
        assert_eq!(h.stats(UeId(3)).unwrap().established_passes, 50);
    }

    /// Drives one lane Steady → Outage → Recovering, returning the
    /// handler for stats assertions.
    fn churned_handler() -> StateHandler {
        let mut h = handler(1);
        let mut io = IntentQueue::new();
        establish(&mut io, 0, 0.01, 25.0);
        h.pass(&mut io);
        // Collapse into outage.
        io.submit(Intent {
            ue: UeId(0),
            t_s: 0.05,
            kind: IntentKind::SnrReport {
                snr_db: -10.0,
                ref_db: 25.0,
                unexplained_drop: false,
            },
        });
        h.pass(&mut io);
        // Stay dark long enough for a retrain to be scheduled.
        let mut t = 0.05;
        for _ in 0..40 {
            t += 0.025;
            io.submit(Intent {
                ue: UeId(0),
                t_s: t,
                kind: IntentKind::SnrReport {
                    snr_db: -10.0,
                    ref_db: 25.0,
                    unexplained_drop: false,
                },
            });
            h.pass(&mut io);
            if h.state(UeId(0)).unwrap().kind() == LinkStateKind::Recovering {
                break;
            }
        }
        h
    }

    #[test]
    fn stats_track_occupancy_time_and_churn() {
        let h = churned_handler();
        let s = h.stats(UeId(0)).unwrap();
        assert!(s.retrains >= 1);
        assert!(s.exit_failures == 0 || s.exit_failures < s.transitions);
        // Occupancy: every touched pass lands in exactly one state bucket.
        assert_eq!(s.state_passes.iter().sum::<u64>(), s.active_passes);
        assert!(s.state_passes[state_kind_index(LinkStateKind::Outage)] >= 1);
        // Time-in-state integrates the front-end clock: total equals the
        // span from first to last intent (all dt's are non-negative).
        let total: f64 = s.time_in_state_s.iter().sum();
        assert!(total > 0.0);
        assert!(s.time_in_state_s.iter().all(|&t| t >= 0.0));
        assert!(s.time_in_state_s[state_kind_index(LinkStateKind::Outage)] > 0.0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn publish_metrics_projects_stats_into_the_registry() {
        let h = churned_handler();
        let mut reg = mmwave_telemetry::MetricsRegistry::new();
        h.publish_metrics(&mut reg);
        let s = h.stats(UeId(0)).unwrap();
        let c = reg.find_counter("ue0", "intents").unwrap();
        assert_eq!(reg.counter_value(c), s.intents);
        let c = reg.find_counter("ue0", "retrains").unwrap();
        assert_eq!(reg.counter_value(c), s.retrains);
        let c = reg.find_counter("ue0", "state_passes:outage").unwrap();
        assert_eq!(
            reg.counter_value(c),
            s.state_passes[state_kind_index(LinkStateKind::Outage)]
        );
        let g = reg.find_gauge("ue0", "time_in_state_s:outage").unwrap();
        assert_eq!(
            reg.gauge_value(g),
            s.time_in_state_s[state_kind_index(LinkStateKind::Outage)]
        );
        // Re-publishing is idempotent (absolute values, not deltas).
        h.publish_metrics(&mut reg);
        let c = reg.find_counter("ue0", "intents").unwrap();
        assert_eq!(reg.counter_value(c), s.intents);
    }
}
