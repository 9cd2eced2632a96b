//! Real polynomial least-squares fitting.
//!
//! The paper's tracking pipeline smooths noisy per-beam power measurements by
//! fitting a quadratic polynomial over a short history window (§6.1:
//! "mmReliable takes time average of power values with a forgetting factor &
//! fits a quadratic polynomial to smooth the data"). This module provides
//! that fit, on stack arrays, plus Horner evaluation.

/// A real polynomial `c[0] + c[1]·x + … + c[M−1]·x^{M−1}` (coefficients
/// in ascending-degree order).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Polynomial<const M: usize> {
    coeffs: [f64; M],
}

impl<const M: usize> Polynomial<M> {
    /// Builds a polynomial from ascending-degree coefficients.
    pub fn new(coeffs: [f64; M]) -> Self {
        const { assert!(M > 0, "polynomial needs at least one coefficient") };
        Self { coeffs }
    }

    /// Coefficients in ascending-degree order.
    pub fn coeffs(&self) -> &[f64; M] {
        &self.coeffs
    }

    /// Evaluates at `x` by Horner's rule.
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }
}

/// Least-squares fit of an `M`-coefficient polynomial (degree `M − 1`)
/// through the `(x, y)` samples. Solved via the normal equations over the
/// Vandermonde matrix, on the stack — adequate for the low degrees (≤ 3)
/// and short windows used here.
///
/// Returns `None` when there are fewer samples than coefficients or the
/// system is numerically singular.
pub fn polyfit<const M: usize>(
    points: impl IntoIterator<Item = (f64, f64)>,
) -> Option<Polynomial<M>> {
    const { assert!(M > 0, "polynomial needs at least one coefficient") };
    // Normal equations: (VᵀV)·c = Vᵀy, with V[i][j] = x_i^j, so entry
    // (j, i) sums x^{i+j}. Each power is the running product 1·x·x·…
    let mut ata = [[0.0; M]; M];
    let mut atb = [0.0; M];
    // Every index below is under `M` by its loop bounds.
    debug_assert_eq!(ata.len(), atb.len());
    let mut samples = 0;
    for (x, y) in points {
        samples += 1;
        let mut power = 1.0;
        for k in 0..2 * M - 1 {
            for i in k.saturating_sub(M - 1)..M.min(k + 1) {
                ata[k - i][i] += power;
            }
            if k < M {
                atb[k] += power * y;
            }
            power *= x;
        }
    }
    if samples < M {
        return None;
    }
    solve_real(&mut ata, &mut atb).map(Polynomial::new)
}

/// In-place Gaussian elimination for small real systems; consumes its inputs.
fn solve_real<const M: usize>(a: &mut [[f64; M]; M], b: &mut [f64; M]) -> Option<[f64; M]> {
    // Every row and column index below is under `M` by its loop bounds.
    debug_assert_eq!(a.len(), b.len());
    for col in 0..M {
        let pivot_row =
            (col..M).max_by(|&r1, &r2| a[r1][col].abs().total_cmp(&a[r2][col].abs()))?;
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        let (pivot_rows, rest) = a.split_at_mut(col + 1);
        let prow = &pivot_rows[col];
        for (off, row) in rest.iter_mut().enumerate() {
            let f = row[col] / prow[col];
            for (x, &p) in row[col..M].iter_mut().zip(&prow[col..M]) {
                *x -= f * p;
            }
            b[col + 1 + off] -= f * b[col];
        }
    }
    let mut x = [0.0; M];
    for i in (0..M).rev() {
        let mut acc = b[i];
        for j in i + 1..M {
            acc -= a[i][j] * x[j];
        }
        x[i] = acc / a[i][i];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    fn points<'a>(xs: &'a [f64], ys: &'a [f64]) -> impl Iterator<Item = (f64, f64)> + 'a {
        xs.iter().copied().zip(ys.iter().copied())
    }

    #[test]
    fn eval_horner() {
        // 1 + 2x + 3x²
        let p = Polynomial::new([1.0, 2.0, 3.0]);
        assert_eq!(p.eval(0.0), 1.0);
        assert_eq!(p.eval(1.0), 6.0);
        assert_eq!(p.eval(2.0), 17.0);
    }

    #[test]
    fn fit_recovers_exact_quadratic() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64 * 0.3 - 1.0).collect();
        let truth = Polynomial::new([2.0, -1.5, 0.75]);
        let ys: Vec<f64> = xs.iter().map(|&x| truth.eval(x)).collect();
        let fit = polyfit::<3>(points(&xs, &ys)).unwrap();
        for (a, b) in fit.coeffs().iter().zip(truth.coeffs()) {
            assert!(close(*a, *b, 1e-9), "{a} vs {b}");
        }
    }

    #[test]
    fn fit_line_through_noisy_points() {
        // y = 3x + 1 with symmetric noise that cancels in LS.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.1, 3.9, 7.1, 9.9];
        let fit = polyfit::<2>(points(&xs, &ys)).unwrap();
        assert!(close(fit.coeffs()[1], 2.96, 0.05));
        assert!(close(fit.coeffs()[0], 1.06, 0.1));
    }

    #[test]
    fn underdetermined_returns_none() {
        assert!(polyfit::<3>(points(&[1.0, 2.0], &[1.0, 2.0])).is_none());
    }

    #[test]
    fn degenerate_x_values_return_none() {
        // All x equal → singular Vandermonde for degree ≥ 1.
        let xs = [2.0; 5];
        let ys = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(polyfit::<3>(points(&xs, &ys)).is_none());
    }

    #[test]
    fn constant_fit_is_mean() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [4.0, 6.0, 8.0];
        let fit = polyfit::<1>(points(&xs, &ys)).unwrap();
        assert!(close(fit.coeffs()[0], 6.0, 1e-12));
    }

    #[test]
    fn smoothing_noisy_beam_power() {
        // Deterministic pseudo-noise around a parabola — the fit must land
        // closer to the truth than the raw samples (this mirrors the
        // tracking smoother's use).
        let truth = Polynomial::new([0.0, 0.0, -20.0]); // peak at 0
        let xs: Vec<f64> = (0..21).map(|i| (i as f64 - 10.0) / 10.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| truth.eval(x) + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let fit = polyfit::<3>(points(&xs, &ys)).unwrap();
        let fit_err: f64 = xs
            .iter()
            .map(|&x| (fit.eval(x) - truth.eval(x)).abs())
            .sum();
        let raw_err: f64 = ys
            .iter()
            .zip(&xs)
            .map(|(&y, &x)| (y - truth.eval(x)).abs())
            .sum();
        assert!(fit_err < raw_err / 3.0, "fit {fit_err} raw {raw_err}");
    }
}
