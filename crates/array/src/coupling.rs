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
//! precomputed once at construction.
//!
//! **Diagonal layout.** On a regular array the retained entries sit on a
//! few diagonals `o = j − i` (the paper's 8×8 array at radius 1 λ: twelve,
//! `±1, ±2, ±7, ±8, ±9, ±16`). The matrix is stored diagonal by diagonal,
//! offsets ascending, with one lane per row padded to a multiple of 4:
//! split real and imaginary coefficient lanes and an all-ones/zero mask
//! lane saying whether `C[i][i+o]` is retained. [`MutualCoupling::apply_in_place`]
//! copies `w` into structure-of-arrays lanes with `max|o|` zeros of margin
//! on each side, starts row `i`'s accumulator at `w[i]`, and for each
//! offset in turn updates every row at once:
//! `acc ← mask ? acc + c·x[i+o] : acc`, with `Complex64`'s own product
//! (`cr·xr − ci·xi`, `cr·xi + ci·xr`) and a bitwise select.
//!
//! **Why it is bit-exact.** Row `i` still adds its entries in ascending
//! `j`, which is ascending `o`, so each output is the same sum in the same
//! order as the row-by-row gather (the test oracle) and as scattering
//! `w[i] += C[i][j]·w[j]` entry by entry. A masked lane keeps its bits
//! through the select. Adding a zero product in place of the select would
//! not: `−0 + +0 = +0`, and mismatch turns a failed element into `−0`. The
//! stencil runs as a twin kernel (DESIGN.md §8, *Twin kernels*); the
//! vector width changes how many rows update at once, not what each row
//! computes.

use crate::geometry::ArrayGeometry;
use mmwave_dsp::complex::{c64, Complex64};
use mmwave_dsp::units::amp_from_db;
use mmwave_hotpath::hot_path;

/// Maximum array size the coupling stage supports (the paper's array is
/// 64 elements); it bounds the diagonal tables, which grow with the
/// number of elements times the number of diagonals.
pub const MAX_COUPLED_ELEMENTS: usize = 256;

/// Rows are padded to a multiple of this, one AVX2 vector of `f64`.
const ROW_BLOCK: usize = 4;

/// Sparse precomputed mutual-coupling matrix `C = I + off-diagonal terms`,
/// stored by diagonal, plus the lanes its kernel works in.
#[derive(Clone, Debug)]
pub struct MutualCoupling {
    n: usize,
    /// `max|o|` over the diagonals (0 without any).
    margin: usize,
    /// Per diagonal, offsets `o = j − i` ascending: `margin + o`, the
    /// first lane of `x_re`/`x_im` that row 0 reads.
    starts: Vec<usize>,
    /// Coefficient lanes, one per row (`n` rounded up to a positive
    /// multiple of [`ROW_BLOCK`], the length of `acc_re`) per diagonal:
    /// `Re C[i][i+o]`.
    coef_re: Vec<f64>,
    /// `Im C[i][i+o]`.
    coef_im: Vec<f64>,
    /// All ones where `C[i][i+o]` is retained, zero elsewhere.
    mask: Vec<u64>,
    /// The kernel's copy of `w`: `margin = max|o|` zeros, `n` elements,
    /// then zeros up to the padded row count plus `2·margin` lanes. Only
    /// the `n` element lanes are ever rewritten, so the zeros are set
    /// once, at construction.
    x_re: Vec<f64>,
    x_im: Vec<f64>,
    /// Row accumulators, one lane per padded row; padding rows stay zero.
    acc_re: Vec<f64>,
    acc_im: Vec<f64>,
}

/// The retained entries `(i, j, C[i][j])` of the coupling matrix for
/// `geom`, row by row and `j` ascending within a row.
fn coupled_pairs(
    geom: &ArrayGeometry,
    coupling_db: f64,
    radius_wl: f64,
) -> Vec<(usize, usize, Complex64)> {
    let n = geom.num_elements();
    let c0 = amp_from_db(coupling_db);
    let d_min = geom.spacing_wl().max(1e-9);
    let mut pairs = Vec::new();
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
            pairs.push((i, j, Complex64::from_polar(mag, phase)));
        }
    }
    pairs
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
        let pairs = coupled_pairs(geom, coupling_db, radius_wl);
        let offset = |&(i, j, _): &(usize, usize, Complex64)| j as isize - i as isize;
        let mut offsets: Vec<isize> = pairs.iter().map(offset).collect();
        offsets.sort_unstable();
        offsets.dedup();
        let margin = offsets.iter().map(|o| o.unsigned_abs()).max().unwrap_or(0);
        let rows = n.div_ceil(ROW_BLOCK).max(1) * ROW_BLOCK;
        let lanes = offsets.len() * rows;
        let mut coef_re = vec![0.0; lanes];
        let mut coef_im = vec![0.0; lanes];
        let mut mask = vec![0u64; lanes];
        for pair in &pairs {
            let diagonal = offsets
                .binary_search(&offset(pair))
                .expect("every pair's offset is listed");
            let (i, _, c) = *pair;
            let lane = diagonal * rows + i;
            coef_re[lane] = c.re;
            coef_im[lane] = c.im;
            mask[lane] = u64::MAX;
        }
        Self {
            n,
            margin,
            starts: offsets
                .iter()
                .map(|&o| margin.checked_add_signed(o).expect("|o| ≤ margin"))
                .collect(),
            coef_re,
            coef_im,
            mask,
            x_re: vec![0.0; rows + 2 * margin],
            x_im: vec![0.0; rows + 2 * margin],
            acc_re: vec![0.0; rows],
            acc_im: vec![0.0; rows],
        }
    }

    /// Number of array elements the matrix was built for.
    pub fn num_elements(&self) -> usize {
        self.n
    }

    /// Applies `w ← C·w` in place (`w.len()` is the array size).
    /// Allocation-free: the diagonal tables and the kernel's lanes are
    /// built once at construction. Runs the AVX2 twin when the CPU has
    /// AVX2 (DESIGN.md §8, *Twin kernels*).
    #[hot_path]
    pub fn apply_in_place(&mut self, w: &mut [Complex64]) {
        debug_assert_eq!(w.len(), self.n);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, the twin's only requirement.
            return unsafe { apply_avx2(self, w) };
        }
        apply_baseline(self, w);
    }
}

/// [`MutualCoupling::apply_in_place`] compiled for the baseline target.
fn apply_baseline(cpl: &mut MutualCoupling, w: &mut [Complex64]) {
    apply_body(cpl, w);
}

/// [`MutualCoupling::apply_in_place`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn apply_avx2(cpl: &mut MutualCoupling, w: &mut [Complex64]) {
    apply_body(cpl, w);
}

/// `w ← C·w` as a stencil: copy `w` into the lanes, then one masked
/// complex multiply-add per diagonal across every row.
#[inline(always)]
fn apply_body(cpl: &mut MutualCoupling, w: &mut [Complex64]) {
    let MutualCoupling {
        margin,
        starts,
        coef_re,
        coef_im,
        mask,
        x_re,
        x_im,
        acc_re,
        acc_im,
        ..
    } = cpl;
    let lanes = x_re.iter_mut().zip(x_im.iter_mut()).skip(*margin);
    let accs = acc_re.iter_mut().zip(acc_im.iter_mut());
    for (((xr, xi), (ar, ai)), v) in lanes.zip(accs).zip(w.iter()) {
        (*xr, *xi, *ar, *ai) = (v.re, v.im, v.re, v.im);
    }
    let rows = acc_re.len();
    let diagonals = starts
        .iter()
        .zip(coef_re.chunks_exact(rows).zip(coef_im.chunks_exact(rows)))
        .zip(mask.chunks_exact(rows));
    for ((&start, (cr, ci)), m) in diagonals {
        let x = x_re.iter().zip(x_im.iter()).skip(start);
        let accs = acc_re.iter_mut().zip(acc_im.iter_mut());
        let coefs = cr.iter().zip(ci).zip(m);
        for (((ar, ai), (&xr, &xi)), ((&cr, &ci), &m)) in accs.zip(x).zip(coefs) {
            *ar = select(m, *ar + (cr * xr - ci * xi), *ar);
            *ai = select(m, *ai + (cr * xi + ci * xr), *ai);
        }
    }
    for (v, (&ar, &ai)) in w.iter_mut().zip(acc_re.iter().zip(acc_im.iter())) {
        *v = c64(ar, ai);
    }
}

/// `yes` where `mask` is all ones, `no` where it is zero, bit for bit.
#[inline(always)]
fn select(mask: u64, yes: f64, no: f64) -> f64 {
    f64::from_bits((yes.to_bits() & mask) | (no.to_bits() & !mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_dsp::rng::Rng64;

    /// The retained entries of each row, `(j, C[i][j])` with `j` ascending.
    fn rows_of(
        geom: &ArrayGeometry,
        coupling_db: f64,
        radius_wl: f64,
    ) -> Vec<Vec<(usize, Complex64)>> {
        let mut rows = vec![Vec::new(); geom.num_elements()];
        for (i, j, c) in coupled_pairs(geom, coupling_db, radius_wl) {
            rows[i].push((j, c));
        }
        rows
    }

    /// The row-gather oracle: each output starts from `w[i]` and adds its
    /// row's entries in ascending `j`.
    fn row_gather(rows: &[Vec<(usize, Complex64)>], w: &mut [Complex64]) {
        let x = w.to_vec();
        for (out, row) in w.iter_mut().zip(rows) {
            for &(j, c) in row {
                *out += c * x[j];
            }
        }
    }

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn identity_when_coupling_vanishes() {
        let geom = ArrayGeometry::paper_8x8();
        let mut cpl = MutualCoupling::from_geometry(&geom, -300.0, 1.0);
        let mut w: Vec<Complex64> = (0..64)
            .map(|i| c64((i as f64 * 0.1).cos(), (i as f64 * 0.1).sin()))
            .collect();
        let orig = w.clone();
        cpl.apply_in_place(&mut w);
        for (a, b) in w.iter().zip(&orig) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn interior_elements_couple_to_neighbours() {
        let geom = ArrayGeometry::paper_8x8();
        let mut cpl = MutualCoupling::from_geometry(&geom, -20.0, 1.0);
        // Element 9 = (1,1) interior: 4 edge + 4 diagonal neighbours within
        // 1 λ at 0.5 λ spacing (plus the straight ±2 neighbours at exactly
        // 1.0 λ). The entry list must contain its 4 nearest neighbours.
        let rows = rows_of(&geom, -20.0, 1.0);
        let nearest: Vec<_> = rows[9].iter().filter(|(_, c)| c.abs() > 0.09).collect();
        assert_eq!(nearest.len(), 4, "4 nearest neighbours at full strength");
        // Perturbation magnitude of a uniform excitation is small but nonzero.
        let mut w = vec![c64(0.125, 0.0); 64];
        cpl.apply_in_place(&mut w);
        let delta: f64 = w.iter().map(|x| (*x - c64(0.125, 0.0)).abs()).sum::<f64>() / 64.0;
        assert!(
            delta > 1e-4 && delta < 0.125,
            "gentle perturbation, got {delta}"
        );
    }

    #[test]
    fn row_sums_are_bitwise_the_scattered_updates() {
        // The diagonal stencil against `w[i] += C[i][j]·w[j]` applied
        // entry by entry in (i-major, j-ascending) order.
        let geom = ArrayGeometry::paper_8x8();
        let mut cpl = MutualCoupling::from_geometry(&geom, -30.0, 1.0);
        let base: Vec<Complex64> = (0..64)
            .map(|i| c64((i as f64 * 0.7).cos() / 8.0, (i as f64 * 1.3).sin() / 8.0))
            .collect();
        let mut want = base.clone();
        for (i, j, c) in coupled_pairs(&geom, -30.0, 1.0) {
            want[i] += c * base[j];
        }
        let mut got = base.clone();
        cpl.apply_in_place(&mut got);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn apply_twins_agree_bit_for_bit() {
        #[cfg(target_arch = "x86_64")]
        {
            if !std::arch::is_x86_feature_detected!("avx2") {
                eprintln!("skipped: this CPU has no AVX2, so there is no twin to compare");
                return;
            }
            let special = [0.0, -0.0, 4.9e-324, -2.2e-310, 1e150, -3e149];
            let mut rng = Rng64::seed(17);
            // `ula(5)` pads its rows; 16×16 is the `MAX_COUPLED_ELEMENTS` edge.
            let arrays = [
                ArrayGeometry::paper_8x8(),
                ArrayGeometry::ula(16),
                ArrayGeometry::ula(5),
                ArrayGeometry::upa(16, 16),
            ];
            for geom in &arrays {
                for radius in [1.0, 1.5, 2.3] {
                    for coupling_db in [-30.0, -10.0] {
                        let rows = rows_of(geom, coupling_db, radius);
                        let mut cpl = MutualCoupling::from_geometry(geom, coupling_db, radius);
                        let n = geom.num_elements();
                        // Trial 0 is all −0; trials 1–4 are signed zeros
                        // alone, where a row whose every product is −0
                        // keeps a −0 part only if unretained lanes add
                        // nothing; trials 5–7 mix in the special values.
                        for trial in 0..8 {
                            let w: Vec<Complex64> = (0..n)
                                .map(|i| match (trial, i % 5) {
                                    // Exact −0 rows, as mismatch leaves
                                    // on a failed element.
                                    (0, _) | (5.., 4) => c64(-0.0, -0.0),
                                    (1..=4, _) => {
                                        c64([0.0, -0.0][rng.index(2)], [0.0, -0.0][rng.index(2)])
                                    }
                                    (_, 2) => c64(
                                        special[rng.index(special.len())],
                                        special[rng.index(special.len())],
                                    ),
                                    _ => rng.complex_normal(),
                                })
                                .collect();
                            let mut want = w.clone();
                            row_gather(&rows, &mut want);
                            let (mut base, mut avx2) = (w.clone(), w.clone());
                            apply_baseline(&mut cpl, &mut base);
                            // SAFETY: the CPU supports AVX2 (checked above).
                            unsafe { apply_avx2(&mut cpl, &mut avx2) };
                            let case = format!(
                                "{n} elements, {radius} λ, {coupling_db} dB, trial {trial}"
                            );
                            assert_eq!(bits(&base), bits(&want), "baseline: {case}");
                            assert_eq!(bits(&avx2), bits(&want), "avx2: {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn coupling_strength_scales_with_db() {
        let geom = ArrayGeometry::ula(16);
        let mut weak = MutualCoupling::from_geometry(&geom, -30.0, 1.0);
        let mut strong = MutualCoupling::from_geometry(&geom, -10.0, 1.0);
        let mut w_weak = vec![c64(0.25, 0.0); 16];
        let mut w_strong = w_weak.clone();
        weak.apply_in_place(&mut w_weak);
        strong.apply_in_place(&mut w_strong);
        let d = |w: &[Complex64]| w.iter().map(|x| (*x - c64(0.25, 0.0)).abs()).sum::<f64>();
        assert!(d(&w_strong) > 5.0 * d(&w_weak));
    }

    #[test]
    fn application_is_deterministic_and_linear() {
        let geom = ArrayGeometry::paper_8x8();
        let mut cpl = MutualCoupling::from_geometry(&geom, -18.0, 1.5);
        let base: Vec<Complex64> = (0..64).map(|i| c64((i as f64 * 0.3).sin(), 0.2)).collect();
        let mut once = base.clone();
        cpl.apply_in_place(&mut once);
        let mut again = base.clone();
        cpl.apply_in_place(&mut again);
        assert_eq!(once, again);
        // Linearity: C·(2w) = 2·(C·w).
        let mut doubled: Vec<Complex64> = base.iter().map(|x| x.scale(2.0)).collect();
        cpl.apply_in_place(&mut doubled);
        for (d, o) in doubled.iter().zip(&once) {
            assert!((*d - o.scale(2.0)).abs() < 1e-12);
        }
    }
}
