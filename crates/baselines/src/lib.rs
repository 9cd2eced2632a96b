//! # mmwave-baselines
//!
//! The comparison systems the paper evaluates against (§6.2), all driven
//! through the same [`strategy::BeamStrategy`] interface as mmReliable so
//! the simulator treats every scheme identically:
//!
//! - [`single_reactive`] — single best beam; on outage, a reactive fast
//!   beam-training (Hassanieh et al. '18 style) re-establishes the link.
//!   The paper's main "Reactive baseline".
//! - [`beamspy`] — BeamSpy-like (Sur et al., NSDI '16): keeps the spatial
//!   profile from training and, on blockage, switches to the best
//!   *alternate* direction without a new scan.
//! - [`widebeam`] — a broadened beam that trades array gain for
//!   misalignment tolerance (the "widebeam" baseline of Fig. 18b).
//! - [`nr_periodic`] — vanilla 5G NR beam management: periodic SSB
//!   re-scans at the standard 20 ms cadence (Fig. 18d's overhead subject).
//! - [`oracle`] — genie maximum-ratio transmission from per-element channel
//!   truth (the upper bound of Fig. 15d).
//! - [`strategy`] — the common trait + the mmReliable adapter.

#![warn(missing_docs)]
pub mod beamspy;
pub mod nr_periodic;
pub mod oracle;
pub mod single_reactive;
pub mod strategy;
pub mod widebeam;

pub use beamspy::BeamSpy;
pub use nr_periodic::NrPeriodic;
pub use oracle::OracleMrt;
pub use single_reactive::SingleBeamReactive;
pub use strategy::{BeamStrategy, MmReliableStrategy};
pub use widebeam::WideBeamStrategy;

use mmwave_array::weights::BeamWeights;

/// Steers a strategy's trained weights with `steer`, reusing their buffer
/// once trained (`steer` overwrites every element, so the placeholder's
/// length does not matter).
pub(crate) fn steer_weights(
    weights: &mut Option<BeamWeights>,
    steer: impl FnOnce(&mut BeamWeights),
) {
    steer(weights.get_or_insert_with(|| BeamWeights::muted(1)))
}
