//! Band-limited (sinc) interpolation kernels.
//!
//! A receiver of bandwidth `B` observes each physical propagation path as a
//! sinc pulse in its sampled channel impulse response (paper Eq. 22):
//!
//! ```text
//! h_eff[n] = Σ_k α_k · sinc(B·(n·Ts − τ_k))
//! ```
//!
//! This module provides the normalized sinc, sampled sinc pulse trains, and
//! the dictionary builder used by the super-resolution solver.

use crate::complex::Complex64;
use crate::linalg::CMatrix;
use mmwave_hotpath::hot_path;
use std::f64::consts::PI;

/// Normalized sinc: `sin(πx)/(πx)`, with `sinc(0) = 1`.
#[inline]
pub fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        let px = PI * x;
        px.sin() / px
    }
}

/// Samples a unit-amplitude sinc pulse centered at delay `tau_s` (seconds),
/// observed with bandwidth `bw_hz` at sampling interval `ts_s`, over `n`
/// taps starting at time 0.
///
/// `out[i] = sinc(bw · (i·Ts − τ))`
pub fn sinc_pulse(n: usize, bw_hz: f64, ts_s: f64, tau_s: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    sinc_pulse_into(n, bw_hz, ts_s, tau_s, &mut out);
    out
}

/// Write-into variant of [`sinc_pulse`]: clears `out` and fills it with the
/// `n` sampled taps, reusing its allocation.
#[hot_path]
pub fn sinc_pulse_into(n: usize, bw_hz: f64, ts_s: f64, tau_s: f64, out: &mut Vec<f64>) {
    out.clear();
    out.extend((0..n).map(|i| sinc(bw_hz * (i as f64 * ts_s - tau_s))));
}

/// Builds the sinc dictionary `S` of Eq. 23: column `k` is a unit sinc pulse
/// at delay `delays_s[k]`, sampled on `n` taps.
pub fn sinc_dictionary(n: usize, bw_hz: f64, ts_s: f64, delays_s: &[f64]) -> CMatrix {
    let cols: Vec<Vec<Complex64>> = delays_s
        .iter()
        .map(|&tau| {
            sinc_pulse(n, bw_hz, ts_s, tau)
                .into_iter()
                .map(|v| Complex64::new(v, 0.0))
                .collect()
        })
        .collect();
    CMatrix::from_columns(&cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sinc_at_zero_and_integers() {
        assert_eq!(sinc(0.0), 1.0);
        for k in 1..=10 {
            assert!(sinc(k as f64).abs() < 1e-12);
            assert!(sinc(-(k as f64)).abs() < 1e-12);
        }
    }

    #[test]
    fn sinc_symmetry() {
        for x in [0.1, 0.37, 1.5, 2.25] {
            assert!((sinc(x) - sinc(-x)).abs() < 1e-15);
        }
    }

    #[test]
    fn sinc_bounded_by_one() {
        let mut x = -10.0;
        while x < 10.0 {
            assert!(sinc(x).abs() <= 1.0 + 1e-12);
            x += 0.013;
        }
    }

    #[test]
    fn pulse_on_grid_is_kronecker() {
        // τ exactly on a sample instant → a single 1.0 at that tap.
        let bw = 400e6;
        let ts = 1.0 / bw;
        let p = sinc_pulse(16, bw, ts, 5.0 * ts);
        for (i, v) in p.iter().enumerate() {
            if i == 5 {
                assert!((v - 1.0).abs() < 1e-12);
            } else {
                assert!(v.abs() < 1e-12, "tap {i} = {v}");
            }
        }
    }

    #[test]
    fn off_grid_pulse_spreads() {
        let bw = 400e6;
        let ts = 1.0 / bw;
        let p = sinc_pulse(16, bw, ts, 5.5 * ts);
        // No single tap captures everything; neighbors share energy.
        assert!(p[5] > 0.5 && p[6] > 0.5);
        assert!(p[4] < 0.0 && p[7] < 0.0); // first sidelobes are negative
    }

    #[test]
    fn dictionary_shape_and_columns() {
        let bw = 400e6;
        let ts = 1.0 / bw;
        let d = sinc_dictionary(8, bw, ts, &[0.0, 3.0 * ts]);
        assert_eq!(d.rows(), 8);
        assert_eq!(d.cols(), 2);
        assert!((d[(0, 0)] - Complex64::ONE).abs() < 1e-12);
        assert!((d[(3, 1)] - Complex64::ONE).abs() < 1e-12);
    }
}
