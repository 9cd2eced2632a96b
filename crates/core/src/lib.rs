//! # mmreliable
//!
//! The paper's contribution: creating and maintaining **constructive
//! multi-beam** mmWave links that are simultaneously reliable and
//! high-throughput (Jain, Subbaraman, Bharadia — SIGCOMM '21).
//!
//! Pipeline (paper Fig. 2 / Fig. 9):
//!
//! 1. [`training`] — exhaustive SSB beam scan → angular power profile →
//!    top-K viable path directions.
//! 2. [`probing`] — the magnitude-only two-probe estimator of the relative
//!    per-path channel `(δ, σ)` (Eq. 11–12), wideband joint estimation
//!    (Eq. 13–14), and path-delay estimation from the CIR.
//! 3. [`multibeam`] — establish the constructive multi-beam `w(φ, δ, σ)`
//!    (Eq. 10) from training + probing results.
//! 4. [`superres`] — per-beam power tracking from a single multi-beam
//!    probe via ridge-regularized sinc/steering-dictionary fitting (Eq. 23).
//! 5. [`tracking`] — proactive mobility management: invert the beam
//!    pattern to recover angular deviation (Eq. 18–20), resolve the sign
//!    ambiguity with one extra probe.
//! 6. [`blockage`] — per-beam blockage detection (rate-of-change) and
//!    power re-purposing.
//! 7. [`linkstate`] — the explicit link lifecycle state machine (single
//!    transition point, bounded-retry recovery, degraded-mode fallback).
//! 8. [`controller`] — the beam-maintenance controller tying it all
//!    together over an abstract [`frontend::LinkFrontEnd`].
//! 9. [`statehandler`] — the fleet-scale generalization of the lifecycle:
//!    a cell-level [`statehandler::StateHandler`] is the only writer of
//!    per-UE lifecycle state; peers queue typed intents on a
//!    [`statehandler::IntentQueue`] and the handler drains it each pass.

#![warn(missing_docs)]
pub mod blockage;
pub mod cancel;
pub mod config;
pub mod controller;
pub mod frontend;
pub mod linkstate;
pub mod multibeam;
pub mod probing;
pub mod statehandler;
pub mod superres;
pub mod tracking;
pub mod training;

pub use cancel::{CancelToken, CancelUnwind};
pub use config::MmReliableConfig;
pub use controller::MmReliableController;
pub use frontend::{LinkFrontEnd, ProbeKind};
pub use linkstate::{LinkState, LinkStateKind, Transition, TransitionCause};
pub use statehandler::{Intent, IntentKind, IntentQueue, PassStats, StateHandler, UeId, UeStats};
