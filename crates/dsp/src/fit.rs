//! Real polynomial least-squares fitting.
//!
//! The paper's tracking pipeline smooths noisy per-beam power measurements by
//! fitting a quadratic polynomial over a short history window (§6.1:
//! "mmReliable takes time average of power values with a forgetting factor &
//! fits a quadratic polynomial to smooth the data"). This module provides
//! that fit plus evaluation helpers.

/// A real polynomial `c[0] + c[1]·x + c[2]·x² + …` (coefficients in
/// ascending-degree order).
#[derive(Clone, Debug, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Builds a polynomial from ascending-degree coefficients.
    pub fn new(coeffs: Vec<f64>) -> Self {
        assert!(
            !coeffs.is_empty(),
            "polynomial needs at least one coefficient"
        );
        Self { coeffs }
    }

    /// Degree of the polynomial (len − 1; trailing zeros are not trimmed).
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Coefficients in ascending-degree order.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Evaluates at `x` by Horner's rule.
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// First derivative polynomial.
    pub fn derivative(&self) -> Polynomial {
        if self.coeffs.len() == 1 {
            return Polynomial::new(vec![0.0]);
        }
        Polynomial::new(
            self.coeffs
                .iter()
                .enumerate()
                .skip(1)
                .map(|(k, &c)| k as f64 * c)
                .collect(),
        )
    }

    /// Stationary point of a quadratic (`-b/2a`); `None` unless degree == 2
    /// with a nonzero leading coefficient.
    pub fn quadratic_vertex(&self) -> Option<f64> {
        if self.coeffs.len() != 3 || self.coeffs[2] == 0.0 {
            return None;
        }
        Some(-self.coeffs[1] / (2.0 * self.coeffs[2]))
    }
}

/// Least-squares polynomial fit of the given degree through `(x, y)` samples.
/// Solved via the normal equations over the Vandermonde matrix — adequate
/// for the low degrees (≤ 3) and short windows used here.
///
/// Returns `None` when there are fewer samples than coefficients or the
/// system is numerically singular.
// xtask-allow(hot-path-closure): the Vandermonde normal-equation scratch is per-fit by design; fits run on the amortized maintenance cadence, not the per-slot loop (ROADMAP item 7)
// xtask-allow(hot-path-panic): every index is bounded by m = degree + 1, the dimension used to size powers/ata/atb three lines up
pub fn polyfit(xs: &[f64], ys: &[f64], degree: usize) -> Option<Polynomial> {
    assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
    let m = degree + 1;
    if xs.len() < m {
        return None;
    }
    // Normal equations: (VᵀV)·c = Vᵀy, with V[i][j] = x_i^j.
    let mut ata = vec![vec![0.0; m]; m];
    let mut atb = vec![0.0; m];
    for (&x, &y) in xs.iter().zip(ys) {
        let mut powers = vec![1.0; 2 * m - 1];
        for k in 1..2 * m - 1 {
            powers[k] = powers[k - 1] * x;
        }
        for i in 0..m {
            for (j, row) in ata.iter_mut().enumerate().take(m) {
                row[i] += powers[i + j];
            }
            atb[i] += powers[i] * y;
        }
    }
    solve_real(&mut ata, &mut atb).map(Polynomial::new)
}

/// In-place Gaussian elimination for small real systems; consumes its inputs.
// xtask-allow(hot-path-panic): all indices are bounded by n = b.len() and the square system polyfit constructs; the pivot max_by scans the non-empty range col..n
// xtask-allow(hot-path-closure): the solution vector is the fit's output; reached only from amortized tick-path fits (ROADMAP item 7)
fn solve_real(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot_row =
            (col..n).max_by(|&r1, &r2| a[r1][col].abs().total_cmp(&a[r2][col].abs()))?;
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        let (pivot_rows, rest) = a.split_at_mut(col + 1);
        let prow = &pivot_rows[col];
        for (off, row) in rest.iter_mut().enumerate() {
            let f = row[col] / prow[col];
            for (x, &p) in row[col..n].iter_mut().zip(&prow[col..n]) {
                *x -= f * p;
            }
            b[col + 1 + off] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = b[i];
        for j in i + 1..n {
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

    #[test]
    fn eval_horner() {
        // 1 + 2x + 3x²
        let p = Polynomial::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.eval(0.0), 1.0);
        assert_eq!(p.eval(1.0), 6.0);
        assert_eq!(p.eval(2.0), 17.0);
        assert_eq!(p.degree(), 2);
    }

    #[test]
    fn derivative() {
        let p = Polynomial::new(vec![1.0, 2.0, 3.0]); // 1 + 2x + 3x²
        let d = p.derivative(); // 2 + 6x
        assert_eq!(d.coeffs(), &[2.0, 6.0]);
        let c = Polynomial::new(vec![5.0]).derivative();
        assert_eq!(c.coeffs(), &[0.0]);
    }

    #[test]
    fn vertex_of_quadratic() {
        // -(x-3)² + 4 = -x² + 6x - 5
        let p = Polynomial::new(vec![-5.0, 6.0, -1.0]);
        assert!(close(p.quadratic_vertex().unwrap(), 3.0, 1e-12));
        assert!(Polynomial::new(vec![1.0, 2.0]).quadratic_vertex().is_none());
    }

    #[test]
    fn fit_recovers_exact_quadratic() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64 * 0.3 - 1.0).collect();
        let truth = Polynomial::new(vec![2.0, -1.5, 0.75]);
        let ys: Vec<f64> = xs.iter().map(|&x| truth.eval(x)).collect();
        let fit = polyfit(&xs, &ys, 2).unwrap();
        for (a, b) in fit.coeffs().iter().zip(truth.coeffs()) {
            assert!(close(*a, *b, 1e-9), "{a} vs {b}");
        }
    }

    #[test]
    fn fit_line_through_noisy_points() {
        // y = 3x + 1 with symmetric noise that cancels in LS.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.1, 3.9, 7.1, 9.9];
        let fit = polyfit(&xs, &ys, 1).unwrap();
        assert!(close(fit.coeffs()[1], 2.96, 0.05));
        assert!(close(fit.coeffs()[0], 1.06, 0.1));
    }

    #[test]
    fn underdetermined_returns_none() {
        assert!(polyfit(&[1.0, 2.0], &[1.0, 2.0], 2).is_none());
    }

    #[test]
    fn degenerate_x_values_return_none() {
        // All x equal → singular Vandermonde for degree ≥ 1.
        let xs = [2.0; 5];
        let ys = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(polyfit(&xs, &ys, 2).is_none());
    }

    #[test]
    fn constant_fit_is_mean() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [4.0, 6.0, 8.0];
        let fit = polyfit(&xs, &ys, 0).unwrap();
        assert!(close(fit.coeffs()[0], 6.0, 1e-12));
    }

    #[test]
    fn smoothing_noisy_beam_power() {
        // Deterministic pseudo-noise around a parabola — the fit must land
        // closer to the truth than the raw samples (this mirrors the
        // tracking smoother's use).
        let truth = Polynomial::new(vec![0.0, 0.0, -20.0]); // peak at 0
        let xs: Vec<f64> = (0..21).map(|i| (i as f64 - 10.0) / 10.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| truth.eval(x) + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let fit = polyfit(&xs, &ys, 2).unwrap();
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
