//! Beamforming weight vectors.
//!
//! [`BeamWeights`] is the unit the rest of the system trades in: a complex
//! weight per antenna element. The FCC total-radiated-power constraint the
//! paper works under (§1) corresponds to `‖w‖ = 1`; constructors and
//! combinators preserve or restore that invariant explicitly.

use mmwave_dsp::complex::{norm, normalize_in_place, Complex64};

/// A complex beamforming weight vector, one entry per antenna element.
#[derive(Clone, Debug, PartialEq)]
pub struct BeamWeights {
    w: Vec<Complex64>,
}

impl BeamWeights {
    /// Wraps a raw weight vector without normalizing. Panics on empty input.
    pub fn from_vec(w: Vec<Complex64>) -> Self {
        assert!(!w.is_empty(), "weight vector cannot be empty");
        Self { w }
    }

    /// Wraps and normalizes to unit TRP (`‖w‖ = 1`).
    pub fn from_vec_normalized(mut w: Vec<Complex64>) -> Self {
        assert!(!w.is_empty(), "weight vector cannot be empty");
        normalize_in_place(&mut w);
        Self { w }
    }

    /// All-zero weights (radio muted) for an `n`-element array.
    // xtask-allow(hot-path-closure): constructor for the muted (all-zero) state, entered on link loss — an exceptional path
    pub fn muted(n: usize) -> Self {
        assert!(n > 0);
        Self {
            w: vec![Complex64::ZERO; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// True if the vector is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Weight slice.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.w
    }

    /// Mutable weight slice, for in-place transforms that preserve length
    /// (e.g. fault layers applying per-element gain masks).
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.w
    }

    /// Overwrites this vector with `other`'s contents, reusing the existing
    /// allocation when capacity suffices. The hot-path alternative to
    /// `*self = other.clone()`.
    pub fn copy_from(&mut self, other: &BeamWeights) {
        self.w.clear();
        self.w.extend_from_slice(&other.w);
    }

    /// Overwrites this vector with the given slice, reusing the allocation.
    /// Panics on empty input (the no-empty-weights invariant).
    pub fn copy_from_slice(&mut self, s: &[Complex64]) {
        assert!(!s.is_empty(), "weight vector cannot be empty");
        self.w.clear();
        self.w.extend_from_slice(s);
    }

    /// In-crate access to the backing vector for write-into kernels
    /// (steering, patterns) that rebuild the weights wholesale.
    pub(crate) fn vec_mut(&mut self) -> &mut Vec<Complex64> {
        &mut self.w
    }

    /// Overwrites with all-zero weights (radio muted) for an `n`-element
    /// array, reusing the allocation — the write-into [`BeamWeights::muted`].
    pub fn set_muted(&mut self, n: usize) {
        assert!(n > 0);
        self.w.clear();
        self.w.resize(n, Complex64::ZERO);
    }

    /// Consumes into the raw vector.
    pub fn into_vec(self) -> Vec<Complex64> {
        self.w
    }

    /// Euclidean norm `‖w‖` (1.0 means full TRP budget in use).
    pub fn norm(&self) -> f64 {
        norm(&self.w)
    }

    /// Applies the weights to a per-element channel vector:
    /// `y = hᵀ·w = Σ_n h[n]·w[n]` (paper Eq. 2, without noise).
    pub fn apply(&self, h: &[Complex64]) -> Complex64 {
        assert_eq!(h.len(), self.w.len(), "channel/weights length mismatch");
        h.iter().zip(&self.w).map(|(a, b)| *a * *b).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_dsp::complex::c64;

    #[test]
    fn normalized_constructor() {
        let w = BeamWeights::from_vec_normalized(vec![c64(3.0, 0.0), c64(0.0, 4.0)]);
        assert!((w.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn muted_has_zero_norm() {
        let w = BeamWeights::muted(8);
        assert_eq!(w.norm(), 0.0);
        assert_eq!(w.len(), 8);
    }

    #[test]
    fn apply_is_inner_product_without_conjugation() {
        // hᵀw, not hᴴw — matches the paper's transmit model.
        let w = BeamWeights::from_vec(vec![c64(0.0, 1.0)]);
        let y = w.apply(&[c64(0.0, 1.0)]);
        assert!((y - c64(-1.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn apply_checks_lengths() {
        BeamWeights::muted(4).apply(&[Complex64::ONE; 3]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty() {
        BeamWeights::from_vec(Vec::new());
    }
}
