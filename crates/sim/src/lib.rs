//! # mmwave-sim
//!
//! The slot-level link simulator and experiment harness of the mmReliable
//! reproduction — the stand-in for the paper's physical testbed loop
//! (gantry + human blockers + MATLAB post-processing, §5–§6).
//!
//! - [`simulator::LinkSimulator`] — binds a [`mmwave_channel::DynamicChannel`]
//!   to a beam-management strategy. It implements
//!   [`mmreliable::LinkFrontEnd`], so *probes advance simulated time*:
//!   a reactive scheme's 6 ms scan really costs 6 ms of link downtime, and
//!   the channel keeps evolving underneath it.
//! - [`metrics`] — reliability (paper Eq. 1), throughput, and the
//!   throughput-reliability product, computed from one unified per-slot
//!   record; CSV emitters for the figure pipeline.
//! - [`scenario`] — the paper's experiment library: static link with a
//!   walking blocker (Fig. 16/18a), mobile link with mid-run blockage
//!   (Fig. 18b/c), gantry rotation (Fig. 17a/b), 1-s translation
//!   (Fig. 17c), outdoor long links, and Appendix B's 28-vs-60 GHz scene.
//! - [`faults`] — seeded fault injection over any front end: probe loss,
//!   stale CSI, SNR glitches, element failures, gain drift, and
//!   unavailability windows, each logged as a typed event.
//! - [`impairments`] — seeded analog hardware impairments over any front
//!   end: oscillator phase noise, PA AM/AM + AM/PM compression,
//!   per-element mismatch, mutual coupling, ADC quantization/clipping, and
//!   LO leakage — all-off is bit-identical to the bare front end.
//! - [`fleet`] — the multi-UE cell: N independent per-UE links sharing
//!   one precomputed environment ([`mmwave_channel::SharedSceneCache`]),
//!   their lifecycle state owned by one [`mmreliable::StateHandler`] per
//!   shard, scheduled deterministically so the fleet digest is invariant
//!   to worker/shard count and a fleet of size 1 is bit-identical to the
//!   single-link pipeline.
//! - [`spec`] — deterministic, serializable scenario descriptions: every
//!   curated scenario (and declarative custom worlds, and per-UE fleet
//!   mixes) as a one-line plain-text spec that round-trips and rebuilds
//!   the exact same [`scenario::Scenario`] values, bit-identical digests
//!   included.
//! - [`fuzz`] — the property-based scenario fuzzer: random-but-valid
//!   specs run against lifecycle/recovery/determinism oracles, with
//!   greedy shrinking and replayable counterexample journal lines.
//! - [`runner`] — [`run_many`], the one seeded multi-run sweep (a
//!   campaign of closure cells), with aggregation.
//! - [`campaign`] — the resilient campaign supervisor: watchdogged
//!   (scenario × strategy × seed × fault) sweeps with per-run deadlines,
//!   bounded retry + deterministic backoff, a crash-consistent JSONL
//!   journal with resume, and deterministic single-threaded failure
//!   replay (DESIGN.md §9).
//!
//! The per-slot compute path is allocation-free in steady state: the
//! simulator owns a [`simulator::SlotWorkspace`] whose
//! [`mmwave_channel::ChannelSnapshot`] is rebuilt at most once per
//! simulated instant and read by every consumer (sounder, strategy truth
//! observer, SNR metric). See DESIGN.md §8 for the dataflow and buffer
//! ownership rules; enable the `perf-counters` feature to get per-run
//! counters on [`metrics::RunResult::counters`].

#![warn(missing_docs)]
pub mod campaign;
pub mod faults;
pub mod fleet;
pub mod fuzz;
pub mod impairments;
pub mod metrics;
pub mod runner;
pub mod scenario;
pub mod simulator;
pub mod spec;

pub use campaign::{
    backoff_delay, closure_jobs, journal_note, load_journal, replay_cell, replay_line,
    run_campaign, CampaignConfig, CampaignFailure, CampaignReport, CellKey, CellOutcome,
    CellStatus, FailureKind, Job, JournalEntry, LineReplay, ReplayTarget, Verdict,
};
pub use faults::{FaultEvent, FaultInjector, FaultKind, FaultSchedule, ProbeLossWindow};
pub use fleet::{
    fleet_digest, parse_fleet_scenario, run_fleet, shard_of, ue_seed, FleetConfig, FleetReport,
    FleetScenarioRef, FleetShard, UeOutcome,
};
pub use impairments::{
    ImpairedFrontEnd, ImpairmentConfig, ImpairmentEvent, ImpairmentKind, ImpairmentStage,
};
pub use metrics::{RunCounters, RunEvent, RunResult, Sample};
pub use runner::{run_many, Aggregate};
pub use scenario::{Scenario, ScenarioError, ValidationMessage};
pub use simulator::{
    front_end_stack, run_front_end, FrontEndStack, LinkSimulator, SimFrontEnd, SlotLoop,
    SlotWorkspace,
};
pub use spec::{CustomWorld, FleetMixSpec, MixGroup, ScenarioSpec, WorldSpec};
