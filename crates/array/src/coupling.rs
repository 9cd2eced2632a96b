//! Static per-element mutual coupling between array elements.
//!
//! Neighbouring elements of a dense half-wavelength array are not isolated:
//! energy fed to one element re-radiates from its neighbours, so the weight
//! vector actually radiated is `C·w` for a coupling matrix `C` with unit
//! diagonal and small off-diagonal terms that decay with element spacing.
//! We use the classic distance-decay model (cf. arXiv:1803.05665): the
//! coupling between elements at distance `d` wavelengths is
//!
//! ```text
//! C[i][j] = c0 · (d_min / d) · e^{-j 2π d},   d ≤ radius
//! ```
//!
//! where `c0` is the nearest-neighbour coupling magnitude (e.g. `-20 dB`)
//! and `d_min` the nearest-neighbour spacing. Entries beyond `radius`
//! wavelengths are negligible and dropped, leaving a sparse matrix that is
//! precomputed once at construction, stored row by row, and applied
//! allocation-free per slot with one accumulator per output element.

use crate::geometry::ArrayGeometry;
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::units::amp_from_db;
use mmwave_hotpath::hot_path;

/// Maximum array size the in-place coupling kernel supports (the paper's
/// array is 64 elements; the stack scratch in the impairment layer matches).
pub const MAX_COUPLED_ELEMENTS: usize = 256;

/// Sparse precomputed mutual-coupling matrix `C = I + off-diagonal terms`,
/// stored row by row.
#[derive(Clone, Debug, PartialEq)]
pub struct MutualCoupling {
    n: usize,
    /// Off-diagonal entries `(j, C[i][j])`, `i ≠ j`, grouped by row `i`
    /// ascending and `j` ascending within a row.
    entries: Vec<(u32, Complex64)>,
    /// `row_end[i]`: one past row `i`'s last entry in `entries`.
    row_end: Vec<u32>,
}

impl MutualCoupling {
    /// Builds the coupling matrix for `geom` with nearest-neighbour
    /// coupling `coupling_db` (magnitude, dB — typically negative) and a
    /// neighbourhood cut-off of `radius_wl` wavelengths.
    pub fn from_geometry(geom: &ArrayGeometry, coupling_db: f64, radius_wl: f64) -> Self {
        let n = geom.num_elements();
        assert!(
            n <= MAX_COUPLED_ELEMENTS,
            "coupling kernel supports at most {MAX_COUPLED_ELEMENTS} elements"
        );
        let c0 = amp_from_db(coupling_db);
        let d_min = geom.spacing_wl().max(1e-9);
        let mut entries = Vec::new();
        let mut row_end = Vec::with_capacity(n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let dx = geom.azimuth_position_wl(i) - geom.azimuth_position_wl(j);
                let dz = geom.elevation_position_wl(i) - geom.elevation_position_wl(j);
                let d = (dx * dx + dz * dz).sqrt();
                if d > radius_wl || d <= 0.0 {
                    continue;
                }
                let mag = c0 * d_min / d;
                let phase = -std::f64::consts::TAU * d;
                entries.push((j as u32, Complex64::from_polar(mag, phase)));
            }
            row_end.push(entries.len() as u32);
        }
        Self {
            n,
            entries,
            row_end,
        }
    }

    /// Number of array elements the matrix was built for.
    pub fn num_elements(&self) -> usize {
        self.n
    }

    /// Number of retained off-diagonal entries.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Applies `w ← C·w` in place using the caller-provided scratch buffer
    /// (`scratch.len() ≥ w.len()`). Allocation-free: the entry list is
    /// precomputed and the scratch is reused across slots.
    ///
    /// Each output element is one row's accumulator: it starts from
    /// `w[i]` and adds the row's entries in ascending `j`, the same sums
    /// in the same order as scattering `w[i] += C[i][j]·w[j]` entry by
    /// entry, so the result is bit-identical to that form.
    #[hot_path]
    pub fn apply_in_place(&self, w: &mut [Complex64], scratch: &mut [Complex64]) {
        debug_assert_eq!(w.len(), self.n);
        let scratch = &mut scratch[..w.len()];
        scratch.copy_from_slice(w);
        let mut start = 0;
        for (i, &end) in self.row_end.iter().enumerate() {
            let end = end as usize;
            let mut acc = scratch[i];
            for &(j, c) in &self.entries[start..end] {
                acc += c * scratch[j as usize];
            }
            w[i] = acc;
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_dsp::complex::c64;

    #[test]
    fn identity_when_coupling_vanishes() {
        let geom = ArrayGeometry::paper_8x8();
        let cpl = MutualCoupling::from_geometry(&geom, -300.0, 1.0);
        let mut w: Vec<Complex64> = (0..64)
            .map(|i| c64((i as f64 * 0.1).cos(), (i as f64 * 0.1).sin()))
            .collect();
        let orig = w.clone();
        let mut scratch = vec![Complex64::ZERO; 64];
        cpl.apply_in_place(&mut w, &mut scratch);
        for (a, b) in w.iter().zip(&orig) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn interior_elements_couple_to_neighbours() {
        let geom = ArrayGeometry::paper_8x8();
        let cpl = MutualCoupling::from_geometry(&geom, -20.0, 1.0);
        // Element 9 = (1,1) interior: 4 edge + 4 diagonal neighbours within
        // 1 λ at 0.5 λ spacing (plus the straight ±2 neighbours at exactly
        // 1.0 λ). The entry list must contain its 4 nearest neighbours.
        let row9 = &cpl.entries[cpl.row_end[8] as usize..cpl.row_end[9] as usize];
        let nearest: Vec<_> = row9.iter().filter(|(_, c)| c.abs() > 0.09).collect();
        assert_eq!(nearest.len(), 4, "4 nearest neighbours at full strength");
        // Perturbation magnitude of a uniform excitation is small but nonzero.
        let mut w = vec![c64(0.125, 0.0); 64];
        let mut scratch = vec![Complex64::ZERO; 64];
        cpl.apply_in_place(&mut w, &mut scratch);
        let delta: f64 = w.iter().map(|x| (*x - c64(0.125, 0.0)).abs()).sum::<f64>() / 64.0;
        assert!(
            delta > 1e-4 && delta < 0.125,
            "gentle perturbation, got {delta}"
        );
    }

    #[test]
    fn row_sums_are_bitwise_the_scattered_updates() {
        // The row-gathered kernel against `w[i] += C[i][j]·w[j]` applied
        // entry by entry in (i-major, j-ascending) order.
        let geom = ArrayGeometry::paper_8x8();
        let cpl = MutualCoupling::from_geometry(&geom, -30.0, 1.0);
        let base: Vec<Complex64> = (0..64)
            .map(|i| c64((i as f64 * 0.7).cos() / 8.0, (i as f64 * 1.3).sin() / 8.0))
            .collect();
        let mut want = base.clone();
        let mut start = 0;
        for (i, &end) in cpl.row_end.iter().enumerate() {
            for &(j, c) in &cpl.entries[start..end as usize] {
                want[i] += c * base[j as usize];
            }
            start = end as usize;
        }
        let mut got = base.clone();
        let mut scratch = vec![Complex64::ZERO; 64];
        cpl.apply_in_place(&mut got, &mut scratch);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                (g.re.to_bits(), g.im.to_bits()),
                (w.re.to_bits(), w.im.to_bits())
            );
        }
        assert_eq!(cpl.num_entries(), 612);
    }

    #[test]
    fn coupling_strength_scales_with_db() {
        let geom = ArrayGeometry::ula(16);
        let weak = MutualCoupling::from_geometry(&geom, -30.0, 1.0);
        let strong = MutualCoupling::from_geometry(&geom, -10.0, 1.0);
        let mut w_weak = vec![c64(0.25, 0.0); 16];
        let mut w_strong = w_weak.clone();
        let mut scratch = vec![Complex64::ZERO; 16];
        weak.apply_in_place(&mut w_weak, &mut scratch);
        strong.apply_in_place(&mut w_strong, &mut scratch);
        let d = |w: &[Complex64]| w.iter().map(|x| (*x - c64(0.25, 0.0)).abs()).sum::<f64>();
        assert!(d(&w_strong) > 5.0 * d(&w_weak));
    }

    #[test]
    fn application_is_deterministic_and_linear() {
        let geom = ArrayGeometry::paper_8x8();
        let cpl = MutualCoupling::from_geometry(&geom, -18.0, 1.5);
        let base: Vec<Complex64> = (0..64).map(|i| c64((i as f64 * 0.3).sin(), 0.2)).collect();
        let mut scratch = vec![Complex64::ZERO; 64];
        let mut once = base.clone();
        cpl.apply_in_place(&mut once, &mut scratch);
        let mut again = base.clone();
        cpl.apply_in_place(&mut again, &mut scratch);
        assert_eq!(once, again);
        // Linearity: C·(2w) = 2·(C·w).
        let mut doubled: Vec<Complex64> = base.iter().map(|x| x.scale(2.0)).collect();
        cpl.apply_in_place(&mut doubled, &mut scratch);
        for (d, o) in doubled.iter().zip(&once) {
            assert!((*d - o.scale(2.0)).abs() < 1e-12);
        }
    }
}
