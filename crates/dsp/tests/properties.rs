//! Property-based tests for the DSP substrate.

use mmwave_dsp::complex::{c64, inner, norm, norm_sqr, normalize_in_place, Complex64};
use mmwave_dsp::fft::{dft_naive, fft, ifft};
use mmwave_dsp::fit::polyfit;
use mmwave_dsp::linalg::{ridge_least_squares, solve, CMatrix};
use mmwave_dsp::sinc::sinc;
use mmwave_dsp::stats;
use mmwave_dsp::units;
use proptest::prelude::*;

fn finite_f64() -> impl Strategy<Value = f64> {
    -1e3..1e3f64
}

fn complex() -> impl Strategy<Value = Complex64> {
    (finite_f64(), finite_f64()).prop_map(|(re, im)| c64(re, im))
}

fn complex_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Complex64>> {
    prop::collection::vec(complex(), len)
}

proptest! {
    #[test]
    fn complex_mul_commutative(a in complex(), b in complex()) {
        let ab = a * b;
        let ba = b * a;
        prop_assert!((ab - ba).abs() <= 1e-9 * (1.0 + ab.abs()));
    }

    #[test]
    fn complex_conj_involution(a in complex()) {
        prop_assert_eq!(a.conj().conj(), a);
    }

    #[test]
    fn complex_abs_multiplicative(a in complex(), b in complex()) {
        let lhs = (a * b).abs();
        let rhs = a.abs() * b.abs();
        prop_assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + rhs));
    }

    #[test]
    fn triangle_inequality(a in complex(), b in complex()) {
        prop_assert!((a + b).abs() <= a.abs() + b.abs() + 1e-9);
    }

    #[test]
    fn polar_round_trip(r in 0.0..100.0f64, theta in -3.1..3.1f64) {
        let z = Complex64::from_polar(r, theta);
        prop_assert!((z.abs() - r).abs() < 1e-9);
        if r > 1e-6 {
            prop_assert!((units::wrap_rad(z.arg() - theta)).abs() < 1e-9);
        }
    }

    #[test]
    fn db_round_trip(db in -100.0..100.0f64) {
        prop_assert!((units::db_from_pow(units::pow_from_db(db)) - db).abs() < 1e-9);
        prop_assert!((units::db_from_amp(units::amp_from_db(db)) - db).abs() < 1e-9);
    }

    #[test]
    fn wrap_deg_in_range(deg in -1e4..1e4f64) {
        let w = units::wrap_deg(deg);
        prop_assert!(w > -180.0 - 1e-9 && w <= 180.0 + 1e-9);
        // wrapping preserves the angle modulo 360
        let diff = (deg - w).rem_euclid(360.0);
        prop_assert!(diff < 1e-6 || (360.0 - diff) < 1e-6);
    }

    #[test]
    fn fft_round_trip(x in complex_vec(1..65)) {
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn fft_matches_dft(x in complex_vec(1..33)) {
        let fast = fft(&x);
        let slow = dft_naive(&x);
        let scale: f64 = 1.0 + x.iter().map(|v| v.abs()).sum::<f64>();
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).abs() < 1e-7 * scale);
        }
    }

    #[test]
    fn fft_parseval(x in complex_vec(1..65)) {
        let y = fft(&x);
        let ex = norm_sqr(&x);
        let ey = norm_sqr(&y) / x.len() as f64;
        prop_assert!((ex - ey).abs() <= 1e-7 * (1.0 + ex));
    }

    #[test]
    fn normalize_gives_unit_norm(mut x in complex_vec(1..32)) {
        prop_assume!(norm(&x) > 1e-6);
        normalize_in_place(&mut x);
        prop_assert!((norm(&x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cauchy_schwarz(a in complex_vec(4..16), b in complex_vec(4..16)) {
        let n = a.len().min(b.len());
        let ip = inner(&a[..n], &b[..n]).abs();
        let bound = norm(&a[..n]) * norm(&b[..n]);
        prop_assert!(ip <= bound + 1e-6 * (1.0 + bound));
    }

    #[test]
    fn solve_then_verify(coeffs in prop::collection::vec(complex(), 9), rhs in prop::collection::vec(complex(), 3)) {
        let a = CMatrix::from_rows(3, 3, coeffs);
        if let Ok(x) = solve(&a, &rhs) {
            let back = a.mul_vec(&x);
            let scale: f64 = 1.0 + rhs.iter().map(|v| v.abs()).sum::<f64>()
                + x.iter().map(|v| v.abs()).sum::<f64>() * a.frobenius_norm();
            for (u, v) in back.iter().zip(&rhs) {
                prop_assert!((*u - *v).abs() < 1e-6 * scale);
            }
        }
    }

    #[test]
    fn ridge_never_worse_than_zero_vector(cols in prop::collection::vec(complex(), 12), rhs in prop::collection::vec(complex(), 4), lambda in 1e-6..10.0f64) {
        // The ridge objective at the solution must not exceed the objective
        // at x = 0 (which is ‖b‖²).
        let a = CMatrix::from_rows(4, 3, cols);
        if let Ok(x) = ridge_least_squares(&a, &rhs, lambda) {
            let resid: Vec<Complex64> = a
                .mul_vec(&x)
                .iter()
                .zip(&rhs)
                .map(|(u, v)| *u - *v)
                .collect();
            let obj = norm_sqr(&resid) + lambda * norm_sqr(&x);
            let zero_obj = norm_sqr(&rhs);
            prop_assert!(obj <= zero_obj * (1.0 + 1e-6) + 1e-9);
        }
    }

    #[test]
    fn sinc_bounded(x in -100.0..100.0f64) {
        prop_assert!(sinc(x).abs() <= 1.0 + 1e-12);
    }

    #[test]
    fn percentile_within_range(data in prop::collection::vec(-1e3..1e3f64, 1..64), q in 0.0..100.0f64) {
        let p = stats::percentile(&data, q);
        let lo = stats::min(&data);
        let hi = stats::max(&data);
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
    }

    #[test]
    fn polyfit_exact_on_polynomial_data(c0 in -10.0..10.0f64, c1 in -10.0..10.0f64, c2 in -10.0..10.0f64) {
        let xs: Vec<f64> = (0..8).map(|i| i as f64 * 0.5 - 2.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| c0 + c1 * x + c2 * x * x).collect();
        let fit = polyfit::<3>(xs.iter().copied().zip(ys.iter().copied())).unwrap();
        let scale = 1.0 + c0.abs() + c1.abs() + c2.abs();
        prop_assert!((fit.coeffs()[0] - c0).abs() < 1e-6 * scale);
        prop_assert!((fit.coeffs()[1] - c1).abs() < 1e-6 * scale);
        prop_assert!((fit.coeffs()[2] - c2).abs() < 1e-6 * scale);
    }
}
