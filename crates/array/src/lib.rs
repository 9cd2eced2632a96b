//! # mmwave-array
//!
//! Software model of the paper's phased-array front end: an 8×8 (64-element)
//! 28 GHz array driven by a single RF chain, with 6-bit phase shifters and
//! 27 dB of per-element gain control (§5.1 of the paper).
//!
//! The model exposes exactly what the paper's algorithms see:
//!
//! - [`geometry::ArrayGeometry`] — uniform linear / planar element layouts,
//! - [`steering`] — steering vectors `a(φ)` and conjugate single-beam
//!   weights (paper Eq. 5–6),
//! - [`weights::BeamWeights`] — unit-norm complex weight vectors (TRP
//!   conservation, `‖w‖ = 1`),
//! - [`quantize::Quantizer`] — hardware phase/amplitude quantization,
//! - [`pattern`] — far-field array factor, beam-pattern metrics, and the
//!   inverse-gain lookup used by the tracking algorithm (Eq. 19–20),
//! - [`codebook`] — the angles of the uniform beam-training scan (64 beams
//!   over 120°, each steered in place by the scan that probes it),
//! - [`multibeam`] — constructive multi-beam synthesis (Eq. 10 / Eq. 29),
//! - [`delay_array`] — the delay-phased-array architecture for wideband
//!   multi-beam operation (§3.4, Eq. 17),
//! - [`coupling`] — static mutual-coupling matrix for the hardware
//!   impairment layer (`w ← C·w` on radiated weights).

#![warn(missing_docs)]
pub mod codebook;
pub mod coupling;
pub mod delay_array;
pub mod geometry;
pub mod multibeam;
pub mod pattern;
pub mod quantize;
pub mod steering;
pub mod weights;

pub use geometry::ArrayGeometry;
pub use multibeam::{BeamComponent, MultiBeam};
pub use quantize::Quantizer;
pub use weights::BeamWeights;
