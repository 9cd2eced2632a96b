//! # mmwave-channel
//!
//! The wireless-channel substrate of the mmReliable reproduction. The paper
//! evaluated on a physical 28 GHz testbed in a 7 m × 10 m conference room and
//! an outdoor 30–80 m street; neither is available here, so this crate
//! builds the closest synthetic equivalent:
//!
//! - [`geom2d`] — 2-D geometry primitives (points, segments, mirror images),
//! - [`path`] — one sparse propagation path (AoD/AoA/complex gain/ToF),
//! - [`channel`] — the paper's own channel model (Eq. 25/26): per-element
//!   frequency response, effective scalar channel under beamforming,
//!   its band-averaged power (the Dirichlet-kernel path Gram form over a
//!   uniform comb), sampled CIR (Eq. 22),
//! - [`environment`] — first-order image-method scenes with material
//!   reflection losses, calibrated to the paper's measurement study
//!   (§3.2: median reflector attenuation 7.2 dB indoor / 5 dB outdoor),
//! - [`blockage`] — human-blocker processes matching the paper's empirical
//!   signature (10 dB over ~10 OFDM symbols, 100–500 ms durations),
//! - [`mobility`] — UE trajectories (rotation at VR-headset rates,
//!   translation at walking speed) with exact ground truth,
//! - [`cell`] — the fleet's shared cell environment: the UE-independent
//!   half of the image-source trace (per-wall gNB images) precomputed once
//!   and shared read-only across every UE of a multi-user cell,
//! - [`dynamics`] — the time-varying composition of all of the above,
//! - [`snapshot`] — the per-slot [`ChannelSnapshot`]: evaluate the dynamic
//!   channel once per time step, read the cached per-path quantities many
//!   times without reallocating (the hot-path contract of DESIGN.md §8),
//! - [`linkbudget`] — transmit/noise/path-loss budgets for 28 and 60 GHz,
//! - [`sampling`] — stochastic reflector-strength sampling for the
//!   measurement-study reproduction (Fig. 4a).

#![warn(missing_docs)]
mod bandpower;
pub mod blockage;
pub mod cell;
pub mod channel;
pub mod dynamics;
pub mod environment;
pub mod geom2d;
pub mod linkbudget;
pub mod mobility;
pub mod path;
pub mod sampling;
pub mod snapshot;

pub use cell::{SharedSceneCache, SharedSceneCounters};
pub use channel::{ChannelScratch, GeometricChannel, UeReceiver};
pub use dynamics::DynamicChannel;
pub use path::{Path, PathKind};
pub use snapshot::ChannelSnapshot;
