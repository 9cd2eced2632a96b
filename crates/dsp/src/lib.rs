//! # mmwave-dsp
//!
//! Self-contained digital-signal-processing substrate for the mmReliable
//! reproduction. The allowed dependency set contains no numeric/DSP crates,
//! so everything the upper layers need is implemented here from scratch:
//!
//! - [`Complex64`] — complex arithmetic (the workhorse type of every crate
//!   above this one),
//! - [`fft`] — radix-2 and Bluestein FFTs plus a reference DFT,
//! - [`linalg`] — dense complex matrices, Hermitian solves, ridge-regularized
//!   least squares (used by the paper's super-resolution step, Eq. 23),
//! - [`sinc`] — band-limited interpolation kernels (Eq. 22),
//! - [`fit`] — real polynomial least squares (tracking smoother, §6.1),
//! - [`stats`] — summary statistics, CDFs, EWMA,
//! - [`units`] — dB/linear conversions and RF constants,
//! - [`math`] — branch-free `ln`/`exp`/turn-fraction `sin`/`cos` kernels
//!   for batched per-slot passes (noise, PA, gain drift),
//! - [`rng`] — seeded Gaussian / complex-Gaussian sampling,
//! - [`nonlinearity`] — Rapp PA AM/AM + AM/PM compression (impairment layer),
//! - [`drift`] — sinusoidal per-element gain drift (fault layer),
//! - [`phase_noise`] — leaky-Wiener oscillator phase noise + ICI penalty,
//! - [`adc`] — mid-rise ADC quantization and clipping for probe samples,
//! - [`count_alloc`] — a counting global allocator backing the
//!   zero-allocation hot-path regression tests.
//!
//! Everything is deterministic given a seed; no global state, no I/O.

#![warn(missing_docs)]
pub mod adc;
pub mod complex;
pub mod count_alloc;
pub mod drift;
pub mod fft;
pub mod fit;
pub mod linalg;
pub mod math;
pub mod nonlinearity;
pub mod phase_noise;
pub mod rng;
pub mod sinc;
pub mod stats;
pub mod units;

pub use complex::Complex64;
pub use linalg::CMatrix;
