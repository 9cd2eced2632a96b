//! Host-speed correction.
//!
//! The host's speed drifts by ±20% over seconds to minutes, and every part
//! of the program slows together (per-link costs of translation and
//! rotation links move in lockstep). Timing a fixed, std-only reference
//! kernel between the measured calls, at most every
//! [`REFRESH_INTERVAL_NS`], and scaling each measured time by
//! `REF_NOMINAL_NS / reference` reports every time as it would read on a
//! host running at nominal speed. The kernel is not repository code, so a
//! change to the program cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Reference kernel rounds: about 1 ms on the host below.
const ROUNDS: usize = 6_000;

/// The nominal reference-kernel time, about its median on the 2-core
/// x86-64 VM the spreads in README.md were measured on (run medians
/// 0.87–1.05 ms). Times are reported at this speed.
pub const REF_NOMINAL_NS: f64 = 1_000_000.0;

/// Minimum host time between two reference measurements.
pub const REFRESH_INTERVAL_NS: u64 = 50_000_000;

/// Host nanoseconds of one pass of the reference kernel: 64 complex phase
/// rotations per round after a `sin_cos`, the arithmetic mix of the
/// simulator's steering and CSI kernels, on an L1-resident buffer.
pub fn reference_ns() -> u64 {
    let start = Instant::now();
    let mut re = [0.0f64; 64];
    let mut im = [0.0f64; 64];
    for (i, (r, m)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
        let a = i as f64 * 0.1;
        *r = a.cos();
        *m = a.sin();
    }
    let mut acc = 0.0;
    for k in 0..ROUNDS {
        let (s, c) = black_box(k as f64 * 1e-3).sin_cos();
        for (r, m) in re.iter_mut().zip(im.iter_mut()) {
            let (nr, nm) = (*r * c - *m * s, *r * s + *m * c);
            *r = nr;
            *m = nm;
            acc += nr * nr + nm * nm;
        }
    }
    black_box(acc);
    crate::wrap::elapsed_ns(start)
}

/// The current host-speed factor, refreshed from the reference kernel.
pub struct HostSpeed {
    factor: f64,
    last: Option<Instant>,
    /// Every reference time measured, for the report.
    pub samples: Vec<u64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    pub fn new() -> Self {
        Self {
            factor: 1.0,
            last: None,
            samples: Vec::with_capacity(4096),
        }
    }

    /// Whether [`REFRESH_INTERVAL_NS`] has passed since the last
    /// measurement.
    pub fn due(&self) -> bool {
        self.last
            .is_none_or(|t| crate::wrap::elapsed_ns(t) >= REFRESH_INTERVAL_NS)
    }

    /// Measures the reference kernel and updates the factor.
    pub fn measure(&mut self) {
        let ns = reference_ns();
        self.samples.push(ns);
        self.factor = REF_NOMINAL_NS / ns.max(1) as f64;
        self.last = Some(Instant::now());
    }

    /// `ns` of host time at nominal host speed.
    pub fn scale(&self, ns: u64) -> u64 {
        (ns as f64 * self.factor).round() as u64
    }
}
