//! Dense complex linear algebra.
//!
//! Small, direct implementations sized for this workspace's problems: the
//! super-resolution solve (Eq. 23 of the paper) involves a dictionary with
//! K ≤ 4 columns, and the optimal-beamforming oracle works with N ≤ 256
//! element channels. Provides:
//!
//! - [`CMatrix`] — row-major dense complex matrix with the usual products,
//! - [`solve`] — Gaussian elimination with partial pivoting,
//! - [`cholesky_solve`] — for Hermitian positive-definite systems, also
//!   split into [`cholesky_factor_into`] + [`cholesky_solve_factored`] so
//!   one factor can serve many right-hand sides,
//! - [`ridge_least_squares`] — `argmin ‖Ax − b‖² + λ‖x‖²` via the normal
//!   equations (exactly the paper's regularized formulation).

use crate::complex::Complex64;

/// Row-major dense complex matrix. The default is the empty 0×0 matrix.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Creates a matrix from row-major data. Panics on a size mismatch.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Builds a matrix column-by-column (each column a slice of length `rows`).
    pub fn from_columns(columns: &[Vec<Complex64>]) -> Self {
        let cols = columns.len();
        assert!(cols > 0, "need at least one column");
        let rows = columns[0].len();
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "all columns must have equal length"
        );
        let mut m = Self::zeros(rows, cols);
        for (j, col) in columns.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Reshapes in place to a `rows × cols` zero matrix, reusing the
    /// existing allocation when it is large enough (hot-path scratch reuse,
    /// DESIGN.md §8).
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, Complex64::ZERO);
    }

    /// Read-only view of the row-major backing storage.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable view of the row-major backing storage (hot-path fills).
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Conjugate (Hermitian) transpose `Aᴴ`.
    pub fn hermitian(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Matrix–vector product `A·x`.
    pub fn mul_vec(&self, x: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        (0..self.rows)
            .map(|i| {
                let mut acc = Complex64::ZERO;
                for j in 0..self.cols {
                    acc += self[(i, j)] * x[j];
                }
                acc
            })
            .collect()
    }

    /// Matrix–matrix product `A·B`.
    pub fn mul_mat(&self, b: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, b.rows, "dimension mismatch in mul_mat");
        let mut out = CMatrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == Complex64::ZERO {
                    continue;
                }
                for j in 0..b.cols {
                    out[(i, j)] += aik * b[(k, j)];
                }
            }
        }
        out
    }

    /// Gram matrix `AᴴA` (Hermitian positive semi-definite).
    ///
    /// Single pass over the rows with one accumulator per upper-triangle
    /// entry: each dot product still sums in row order from zero, so the
    /// result is bit-identical to computing the entries one at a time,
    /// but `A` is read once instead of `K(K+1)/2` times.
    pub fn gram(&self) -> CMatrix {
        debug_assert_eq!(self.data.len(), self.rows * self.cols);
        let mut g = CMatrix::zeros(self.cols, self.cols);
        for row in self.data.chunks_exact(self.cols) {
            for i in 0..self.cols {
                let ai = row[i].conj();
                for j in i..self.cols {
                    g[(i, j)] += ai * row[j];
                }
            }
        }
        for i in 0..self.cols {
            for j in i + 1..self.cols {
                g[(j, i)] = g[(i, j)].conj();
            }
        }
        g
    }

    /// `Aᴴ·b`.
    ///
    /// Same single-pass layout as [`CMatrix::gram`]: one accumulator per
    /// output entry, each summing in row order — bit-identical to the
    /// column-at-a-time evaluation.
    pub fn hermitian_mul_vec(&self, b: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(b.len(), self.rows, "dimension mismatch");
        let mut acc = vec![Complex64::ZERO; self.cols];
        for (row, &bi) in self.data.chunks_exact(self.cols).zip(b) {
            for (a, &aij) in acc.iter_mut().zip(row) {
                *a += aij.conj() * bi;
            }
        }
        acc
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt()
    }
}

impl std::ops::Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Error type for linear solves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinalgError {
    /// The system matrix is singular (or numerically so).
    Singular,
    /// The matrix is not positive definite (Cholesky only).
    NotPositiveDefinite,
    /// Input dimensions are inconsistent.
    DimensionMismatch,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            LinalgError::DimensionMismatch => write!(f, "dimension mismatch"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Solves `A·x = b` by Gaussian elimination with partial pivoting.
pub fn solve(a: &CMatrix, b: &[Complex64]) -> Result<Vec<Complex64>, LinalgError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(LinalgError::DimensionMismatch);
    }
    let mut m = a.clone();
    let mut rhs = b.to_vec();
    for col in 0..n {
        // Partial pivot: pick the row with the largest magnitude in this column.
        let (pivot_row, pivot_mag) = (col..n)
            .map(|r| (r, m[(r, col)].abs()))
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .expect("non-empty range");
        if pivot_mag < 1e-14 {
            return Err(LinalgError::Singular);
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = m[(col, j)];
                m[(col, j)] = m[(pivot_row, j)];
                m[(pivot_row, j)] = tmp;
            }
            rhs.swap(col, pivot_row);
        }
        let inv_piv = m[(col, col)].inv();
        for r in col + 1..n {
            let factor = m[(r, col)] * inv_piv;
            if factor == Complex64::ZERO {
                continue;
            }
            for j in col..n {
                let v = m[(col, j)];
                m[(r, j)] -= factor * v;
            }
            let bv = rhs[col];
            rhs[r] -= factor * bv;
        }
    }
    // Back substitution.
    let mut x = vec![Complex64::ZERO; n];
    for i in (0..n).rev() {
        let mut acc = rhs[i];
        for j in i + 1..n {
            acc -= m[(i, j)] * x[j];
        }
        x[i] = acc * m[(i, i)].inv();
    }
    Ok(x)
}

/// Solves `A·x = b` for Hermitian positive-definite `A` using a complex
/// Cholesky factorization `A = L·Lᴴ`.
pub fn cholesky_solve(a: &CMatrix, b: &[Complex64]) -> Result<Vec<Complex64>, LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch);
    }
    let mut l = CMatrix::default();
    cholesky_factor_into(a, &mut l)?;
    let mut x = b.to_vec();
    cholesky_solve_factored(&l, &mut x);
    Ok(x)
}

/// Writes the lower-triangular Cholesky factor `L` of a Hermitian
/// positive-definite `A = L·Lᴴ` into `l`, reusing its storage. Solve
/// against it with [`cholesky_solve_factored`]; [`cholesky_solve`] is
/// exactly these two steps.
pub fn cholesky_factor_into(a: &CMatrix, l: &mut CMatrix) -> Result<(), LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::DimensionMismatch);
    }
    l.reset(n, n);
    debug_assert!(a.as_slice().len() == n * n && l.as_slice().len() == n * n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)].conj();
            }
            if i == j {
                // Diagonal entries of a Hermitian PD matrix are real positive.
                let d = sum.re;
                if d <= 0.0 || sum.im.abs() > 1e-9 * (1.0 + d.abs()) {
                    return Err(LinalgError::NotPositiveDefinite);
                }
                l[(i, j)] = Complex64::new(d.sqrt(), 0.0);
            } else {
                l[(i, j)] = sum * l[(j, j)].inv();
            }
        }
    }
    Ok(())
}

/// Solves `L·Lᴴ·x = b` in place (`x` holds `b` on entry) for a factor from
/// [`cholesky_factor_into`]. Allocation-free: the forward solve overwrites
/// `x[i]` only after its last read of `b[i]`, and the backward solve reads
/// only entries it has already finalised.
pub fn cholesky_solve_factored(l: &CMatrix, x: &mut [Complex64]) {
    let n = x.len();
    debug_assert!(l.rows() == n && l.cols() == n);
    // Forward solve L·y = b.
    for i in 0..n {
        let mut acc = x[i];
        for k in 0..i {
            acc -= l[(i, k)] * x[k];
        }
        x[i] = acc * l[(i, i)].inv();
    }
    // Backward solve Lᴴ·x = y.
    for i in (0..n).rev() {
        let mut acc = x[i];
        for k in i + 1..n {
            acc -= l[(k, i)].conj() * x[k];
        }
        x[i] = acc * l[(i, i)].inv();
    }
}

/// Ridge-regularized least squares:
/// `argmin_x ‖A·x − b‖² + λ‖x‖²`, solved via the normal equations
/// `(AᴴA + λI)·x = Aᴴb` with a Cholesky factorization.
///
/// This is exactly the convex program of the paper's Eq. 23 (the
/// super-resolution fit of per-beam amplitudes over a sinc dictionary).
pub fn ridge_least_squares(
    a: &CMatrix,
    b: &[Complex64],
    lambda: f64,
) -> Result<Vec<Complex64>, LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch);
    }
    assert!(lambda >= 0.0, "ridge parameter must be non-negative");
    let mut gram = a.gram();
    debug_assert_eq!(gram.rows(), a.cols());
    for i in 0..gram.rows() {
        gram[(i, i)] += Complex64::new(lambda, 0.0);
    }
    let rhs = a.hermitian_mul_vec(b);
    cholesky_solve(&gram, &rhs).or_else(|_| solve(&gram, &rhs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::rng::Rng64;

    fn assert_close(a: Complex64, b: Complex64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    fn random_matrix(rng: &mut Rng64, rows: usize, cols: usize) -> CMatrix {
        let data = (0..rows * cols).map(|_| rng.complex_normal()).collect();
        CMatrix::from_rows(rows, cols, data)
    }

    #[test]
    fn identity_solve_is_identity() {
        let a = CMatrix::identity(4);
        let b = vec![c64(1.0, 2.0), c64(3.0, -1.0), c64(0.0, 0.5), c64(-2.0, 0.0)];
        let x = solve(&a, &b).unwrap();
        for (u, v) in x.iter().zip(&b) {
            assert_close(*u, *v, 1e-12);
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let mut rng = Rng64::seed(3);
        for n in [2usize, 3, 5, 8] {
            let a = random_matrix(&mut rng, n, n);
            let x_true: Vec<Complex64> = (0..n).map(|_| rng.complex_normal()).collect();
            let b = a.mul_vec(&x_true);
            let x = solve(&a, &b).unwrap();
            for (u, v) in x.iter().zip(&x_true) {
                assert_close(*u, *v, 1e-8);
            }
        }
    }

    #[test]
    fn solve_detects_singular() {
        let mut a = CMatrix::zeros(3, 3);
        a[(0, 0)] = Complex64::ONE;
        a[(1, 1)] = Complex64::ONE;
        // Row 2 all zeros → singular.
        let b = vec![Complex64::ONE; 3];
        assert_eq!(solve(&a, &b), Err(LinalgError::Singular));
    }

    #[test]
    fn solve_rejects_bad_dims() {
        let a = CMatrix::zeros(3, 2);
        let b = vec![Complex64::ONE; 3];
        assert_eq!(solve(&a, &b), Err(LinalgError::DimensionMismatch));
    }

    #[test]
    fn hermitian_transpose() {
        let a = CMatrix::from_rows(
            2,
            2,
            vec![c64(1.0, 1.0), c64(2.0, 0.0), c64(0.0, 3.0), c64(4.0, -4.0)],
        );
        let h = a.hermitian();
        assert_close(h[(0, 0)], c64(1.0, -1.0), 1e-15);
        assert_close(h[(0, 1)], c64(0.0, -3.0), 1e-15);
        assert_close(h[(1, 0)], c64(2.0, 0.0), 1e-15);
    }

    #[test]
    fn gram_is_hermitian_psd() {
        let mut rng = Rng64::seed(4);
        let a = random_matrix(&mut rng, 6, 3);
        let g = a.gram();
        for i in 0..3 {
            assert!(g[(i, i)].re >= 0.0);
            assert!(g[(i, i)].im.abs() < 1e-12);
            for j in 0..3 {
                assert_close(g[(i, j)], g[(j, i)].conj(), 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_matches_gaussian() {
        let mut rng = Rng64::seed(5);
        let a = random_matrix(&mut rng, 8, 4);
        let mut g = a.gram();
        for i in 0..4 {
            g[(i, i)] += c64(0.1, 0.0); // ensure PD
        }
        let b: Vec<Complex64> = (0..4).map(|_| rng.complex_normal()).collect();
        let x1 = cholesky_solve(&g, &b).unwrap();
        let x2 = solve(&g, &b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert_close(*u, *v, 1e-9);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut m = CMatrix::identity(2);
        m[(1, 1)] = c64(-1.0, 0.0);
        let b = vec![Complex64::ONE; 2];
        assert_eq!(
            cholesky_solve(&m, &b),
            Err(LinalgError::NotPositiveDefinite)
        );
    }

    #[test]
    fn ridge_zero_lambda_matches_exact_ls() {
        // Overdetermined consistent system: ridge(0) recovers exact solution.
        let mut rng = Rng64::seed(6);
        let a = random_matrix(&mut rng, 10, 3);
        let x_true: Vec<Complex64> = (0..3).map(|_| rng.complex_normal()).collect();
        let b = a.mul_vec(&x_true);
        let x = ridge_least_squares(&a, &b, 0.0).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            assert_close(*u, *v, 1e-8);
        }
    }

    #[test]
    fn ridge_shrinks_solution() {
        let mut rng = Rng64::seed(7);
        let a = random_matrix(&mut rng, 10, 3);
        let b: Vec<Complex64> = (0..10).map(|_| rng.complex_normal()).collect();
        let x0 = ridge_least_squares(&a, &b, 0.0).unwrap();
        let x1 = ridge_least_squares(&a, &b, 10.0).unwrap();
        let n0: f64 = x0.iter().map(|v| v.norm_sqr()).sum();
        let n1: f64 = x1.iter().map(|v| v.norm_sqr()).sum();
        assert!(n1 < n0, "ridge must shrink: {n1} !< {n0}");
    }

    #[test]
    fn ridge_handles_rank_deficient_dictionary() {
        // Two identical columns: unregularized normal equations are singular,
        // ridge must still produce a finite solution.
        let col = vec![c64(1.0, 0.0), c64(0.5, 0.5), c64(0.0, 1.0)];
        let a = CMatrix::from_columns(&[col.clone(), col.clone()]);
        let b = vec![c64(1.0, 0.0), c64(0.5, 0.5), c64(0.0, 1.0)];
        let x = ridge_least_squares(&a, &b, 1e-6).unwrap();
        assert!(x.iter().all(|v| !v.is_bad()));
        // Symmetry: the two coefficients must match.
        assert_close(x[0], x[1], 1e-6);
    }

    #[test]
    fn mul_mat_identity() {
        let mut rng = Rng64::seed(8);
        let a = random_matrix(&mut rng, 4, 4);
        let i = CMatrix::identity(4);
        let p = a.mul_mat(&i);
        assert!((p.frobenius_norm() - a.frobenius_norm()).abs() < 1e-12);
        for r in 0..4 {
            for c in 0..4 {
                assert_close(p[(r, c)], a[(r, c)], 1e-12);
            }
        }
    }

    #[test]
    fn from_columns_layout() {
        let a = CMatrix::from_columns(&[
            vec![c64(1.0, 0.0), c64(2.0, 0.0)],
            vec![c64(3.0, 0.0), c64(4.0, 0.0)],
        ]);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 2);
        assert_close(a[(0, 1)], c64(3.0, 0.0), 1e-15);
        assert_close(a[(1, 0)], c64(2.0, 0.0), 1e-15);
    }
}
