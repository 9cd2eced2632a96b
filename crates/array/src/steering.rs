//! Steering vectors and conjugate single-beam weights.
//!
//! Conventions follow the paper (Eq. 5–6): for a ULA with spacing `d` and a
//! departure angle `φ` measured from broadside, the channel phase at element
//! `n` is `e^{-j2π(d/λ)·n·sin φ}`; the matching single-beam weight conjugates
//! it. Angles at this API are **degrees**.

use crate::geometry::ArrayGeometry;
use crate::weights::BeamWeights;
use mmwave_dsp::complex::Complex64;
use mmwave_hotpath::hot_path;
use std::f64::consts::PI;

/// Steering vector `a(φ)` (paper's Appendix A): element `n` carries
/// `e^{-j2π·(d/λ)·x_n·sin φ}` where `x_n` is its azimuth position in
/// wavelengths. For a UPA an elevation angle of 0 is assumed.
pub fn steering_vector(geom: &ArrayGeometry, aod_deg: f64) -> Vec<Complex64> {
    steering_vector_az_el(geom, aod_deg, 0.0)
}

/// Write-into variant of [`steering_vector`]: clears `out` and fills it,
/// reusing its allocation. This is the hot-path kernel — one call per path
/// per slot in the simulator.
#[hot_path]
pub fn steering_vector_into(geom: &ArrayGeometry, aod_deg: f64, out: &mut Vec<Complex64>) {
    steering_vector_az_el_into(geom, aod_deg, 0.0, out);
}

/// Steering vector with explicit azimuth and elevation departure angles.
pub fn steering_vector_az_el(geom: &ArrayGeometry, az_deg: f64, el_deg: f64) -> Vec<Complex64> {
    let mut out = Vec::with_capacity(geom.num_elements());
    steering_vector_az_el_into(geom, az_deg, el_deg, &mut out);
    out
}

/// Write-into variant of [`steering_vector_az_el`].
///
/// At zero elevation (`sin(el)` is `+0.0`, which every
/// [`steering_vector_into`] call hits) every row of a UPA carries the same
/// phases, so only the `nx` entries of row 0 are evaluated, by the phasor
/// recurrence of [`azimuth_row_into`], and the row is tiled. Any other
/// elevation, `-0.0` included, keeps the per-element loop.
#[hot_path]
pub fn steering_vector_az_el_into(
    geom: &ArrayGeometry,
    az_deg: f64,
    el_deg: f64,
    out: &mut Vec<Complex64>,
) {
    let su = az_deg.to_radians().sin();
    let sv = el_deg.to_radians().sin();
    out.clear();
    if sv.to_bits() == 0 {
        tile_azimuth_row(geom, su, |e| e, out);
        return;
    }
    out.extend((0..geom.num_elements()).map(|i| {
        let phase =
            -2.0 * PI * (geom.azimuth_position_wl(i) * su + geom.elevation_position_wl(i) * sv);
        Complex64::cis(phase)
    }));
}

/// The `nx` distinct entries of the zero-elevation steering vector
/// `a(φ)`: column `c` carries `e^{-j2π·x_c·sin φ}`, and every row of a UPA
/// repeats them. Clears `out` and fills it. Paired with
/// [`fold_columns_into`], this row gives the array factor `a(φ)ᵀw` in `nx`
/// multiply-adds ([`folded_array_factor`]).
#[hot_path]
pub fn azimuth_row_into(geom: &ArrayGeometry, az_deg: f64, out: &mut Vec<Complex64>) {
    out.clear();
    push_azimuth_row(geom, az_deg.to_radians().sin(), |e| e, out);
}

/// Appends `f(e_c)` for the `nx` azimuth columns to `out`, where
/// `e_c = cis(-2π·(x_c·su + 0))`. The columns are uniformly spaced
/// (`x_c = c·d`), so the row is a geometric sequence: only the start
/// `e_0` and the step `cis(-2π·(d·su + 0))` call `cis`, and
/// `e_{c+1} = e_c·step`. Exact in arithmetic; in floating point each step
/// adds about an ulp of rounding (at most 1.7·10⁻¹³ per element against
/// the per-element `cis` on ULAs of up to 256 elements, bounded by
/// `crates/array/tests/properties.rs`). NaN in `su` gives NaN throughout.
#[inline]
pub(crate) fn push_azimuth_row(
    geom: &ArrayGeometry,
    su: f64,
    f: impl Fn(Complex64) -> Complex64,
    out: &mut impl Extend<Complex64>,
) {
    let step = Complex64::cis(-2.0 * PI * (geom.spacing_wl() * su + 0.0));
    let mut e = Complex64::cis(-2.0 * PI * (geom.azimuth_position_wl(0) * su + 0.0));
    out.extend((0..geom.azimuth_elements()).map(|_| {
        let v = f(e);
        e *= step;
        v
    }));
}

/// Fills the empty `out` with the zero-elevation row `f(e_c)` of
/// [`push_azimuth_row`], then copies that row once per remaining
/// elevation row.
#[inline]
fn tile_azimuth_row(
    geom: &ArrayGeometry,
    su: f64,
    f: impl Fn(Complex64) -> Complex64,
    out: &mut Vec<Complex64>,
) {
    let nx = geom.azimuth_elements();
    push_azimuth_row(geom, su, f, out);
    for _ in 1..geom.num_elements() / nx {
        out.extend_from_within(..nx);
    }
}

/// Folds `w` onto the azimuth columns of the tiled layout:
/// `out[c] = Σ_r w[r·nx + c]`, summed in row order (row 0 copied, the
/// others added). Every zero-elevation steering vector repeats one
/// azimuth row (see [`steering_vector_az_el_into`]), so
/// `a(φ)ᵀw = Σ_c a_c·out[c]`: fold once per beam, then each path's array
/// factor costs `nx` multiply-adds instead of `nx·ny`. Clears `out` and
/// fills it.
#[hot_path]
pub fn fold_columns_into(geom: &ArrayGeometry, w: &BeamWeights, out: &mut Vec<Complex64>) {
    assert_eq!(
        w.len(),
        geom.num_elements(),
        "channel/weights length mismatch"
    );
    let mut rows = w.as_slice().chunks_exact(geom.azimuth_elements());
    out.clear();
    if let Some(first) = rows.next() {
        out.extend_from_slice(first);
    }
    for row in rows {
        for (acc, &x) in out.iter_mut().zip(row) {
            *acc += x;
        }
    }
}

/// The array factor `a(φ)ᵀw = Σ_c row_c·folded_c` from an
/// [`azimuth_row_into`] row and [`fold_columns_into`] weights of the same
/// geometry.
#[hot_path]
pub fn folded_array_factor(row: &[Complex64], folded: &[Complex64]) -> Complex64 {
    debug_assert_eq!(row.len(), folded.len());
    row.iter().zip(folded).map(|(a, w)| *a * *w).sum()
}

/// Conjugate (maximum-ratio) single-beam weights toward `aod_deg`
/// (paper Eq. 6): `w = a*(φ)/‖a(φ)‖`, unit-norm so TRP is conserved.
pub fn single_beam(geom: &ArrayGeometry, aod_deg: f64) -> BeamWeights {
    let mut w = BeamWeights::muted(geom.num_elements());
    single_beam_into(geom, aod_deg, &mut w);
    w
}

/// Write-into variant of [`single_beam`]: overwrites `out` without
/// allocating (when its capacity suffices). Each element is the tiled
/// zero-elevation steering phasor `e` of [`steering_vector`], conjugated
/// and scaled: `conj(e)/√N`.
#[hot_path]
pub fn single_beam_into(geom: &ArrayGeometry, aod_deg: f64, out: &mut BeamWeights) {
    let su = aod_deg.to_radians().sin();
    let weight = single_beam_weight(geom);
    let v = out.vec_mut();
    v.clear();
    tile_azimuth_row(geom, su, weight, v);
}

/// The single-beam weight `conj(e)/√N` of a steering phasor `e` on `geom`
/// (the conjugate of paper Eq. 6, unit-norm over the `N` elements); the one
/// per-element formula of [`single_beam_into`] and
/// [`synthesize_into`](crate::multibeam::synthesize_into).
#[inline]
pub(crate) fn single_beam_weight(geom: &ArrayGeometry) -> impl Fn(Complex64) -> Complex64 {
    let n = (geom.num_elements() as f64).sqrt();
    move |e| e.conj() / n
}

/// A "wide" beam: only the central `active` azimuth elements are driven
/// (rest muted), which broadens the main lobe at the cost of array gain.
/// Used by the wide-beam baseline. Power is renormalized to unit TRP.
pub fn wide_beam(geom: &ArrayGeometry, aod_deg: f64, active: usize) -> BeamWeights {
    let mut w = BeamWeights::muted(geom.num_elements());
    wide_beam_into(geom, aod_deg, active, &mut w);
    w
}

/// Write-into variant of [`wide_beam`]: overwrites `out` without
/// allocating (when its capacity suffices).
#[hot_path]
pub fn wide_beam_into(geom: &ArrayGeometry, aod_deg: f64, active: usize, out: &mut BeamWeights) {
    let n_az = geom.azimuth_elements();
    let active = active.clamp(1, n_az);
    let start = (n_az - active) / 2;
    let end = start + active;
    let w = out.vec_mut();
    steering_vector_into(geom, aod_deg, w);
    for (i, v) in w.iter_mut().enumerate() {
        let col = match geom {
            ArrayGeometry::Ula { .. } => i,
            ArrayGeometry::Upa { nx, .. } => i % nx,
        };
        *v = if col >= start && col < end {
            v.conj()
        } else {
            Complex64::ZERO
        };
    }
    mmwave_dsp::complex::normalize_in_place(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_dsp::complex::norm;

    #[test]
    fn steering_vector_has_unit_elements() {
        let g = ArrayGeometry::ula(8);
        for angle in [-60.0, -10.0, 0.0, 33.0] {
            let a = steering_vector(&g, angle);
            assert_eq!(a.len(), 8);
            for v in &a {
                assert!((v.abs() - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn broadside_steering_is_all_ones() {
        let g = ArrayGeometry::ula(8);
        let a = steering_vector(&g, 0.0);
        for v in &a {
            assert!((*v - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn single_beam_unit_norm() {
        let g = ArrayGeometry::ula(16);
        for angle in [-45.0, 0.0, 12.0, 60.0] {
            let w = single_beam(&g, angle);
            assert!((norm(w.as_slice()) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn beam_gain_is_sqrt_n_toward_target() {
        // a(φ)ᵀ·w(φ) = √N for conjugate beamforming with unit TRP.
        let g = ArrayGeometry::ula(8);
        let angle = 25.0;
        let a = steering_vector(&g, angle);
        let w = single_beam(&g, angle);
        let gain: Complex64 = a.iter().zip(w.as_slice()).map(|(x, y)| *x * *y).sum();
        assert!((gain.abs() - (8f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn off_target_gain_is_lower() {
        let g = ArrayGeometry::ula(8);
        let w = single_beam(&g, 0.0);
        let on: Complex64 = steering_vector(&g, 0.0)
            .iter()
            .zip(w.as_slice())
            .map(|(x, y)| *x * *y)
            .sum();
        let off: Complex64 = steering_vector(&g, 30.0)
            .iter()
            .zip(w.as_slice())
            .map(|(x, y)| *x * *y)
            .sum();
        assert!(off.abs() < on.abs() / 2.0);
    }

    #[test]
    fn upa_azimuth_behaviour_matches_ula() {
        // With elevation 0, a UPA's azimuth gain pattern matches its
        // azimuth-cut ULA (up to the elevation-axis power factor).
        let upa = ArrayGeometry::paper_8x8();
        let ula = upa.azimuth_cut();
        let angle = 20.0;
        let w_upa = single_beam(&upa, angle);
        let w_ula = single_beam(&ula, angle);
        let g_upa: Complex64 = steering_vector(&upa, angle)
            .iter()
            .zip(w_upa.as_slice())
            .map(|(x, y)| *x * *y)
            .sum();
        let g_ula: Complex64 = steering_vector(&ula, angle)
            .iter()
            .zip(w_ula.as_slice())
            .map(|(x, y)| *x * *y)
            .sum();
        // 64-element array: √64 = 8; 8-element: √8.
        assert!((g_upa.abs() - 8.0).abs() < 1e-9);
        assert!((g_ula.abs() - 8f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn wide_beam_unit_norm_and_wider() {
        let g = ArrayGeometry::ula(8);
        let narrow = single_beam(&g, 0.0);
        let wide = wide_beam(&g, 0.0, 2);
        assert!((norm(wide.as_slice()) - 1.0).abs() < 1e-12);
        // Peak gain of the wide beam is lower...
        let peak_n: Complex64 = steering_vector(&g, 0.0)
            .iter()
            .zip(narrow.as_slice())
            .map(|(x, y)| *x * *y)
            .sum();
        let peak_w: Complex64 = steering_vector(&g, 0.0)
            .iter()
            .zip(wide.as_slice())
            .map(|(x, y)| *x * *y)
            .sum();
        assert!(peak_w.abs() < peak_n.abs());
        // ...but it holds up better at 15° off-boresight.
        let off_n: Complex64 = steering_vector(&g, 15.0)
            .iter()
            .zip(narrow.as_slice())
            .map(|(x, y)| *x * *y)
            .sum();
        let off_w: Complex64 = steering_vector(&g, 15.0)
            .iter()
            .zip(wide.as_slice())
            .map(|(x, y)| *x * *y)
            .sum();
        assert!(off_w.abs() > off_n.abs());
    }

    #[test]
    fn wide_beam_into_a_reused_buffer_is_bitwise_wide_beam() {
        // The buffer last held a beam of another array and width.
        let mut w = wide_beam(&ArrayGeometry::ula(4), 20.0, 2);
        for (g, aod, active) in [
            (ArrayGeometry::paper_8x8(), -37.5, 4),
            (ArrayGeometry::ula(8), 12.0, 3),
            (ArrayGeometry::paper_8x8(), 60.0, 8),
        ] {
            wide_beam_into(&g, aod, active, &mut w);
            let want = wide_beam(&g, aod, active);
            assert_eq!(w.len(), want.len());
            for (a, b) in w.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits())
                );
            }
        }
    }

    #[test]
    fn wide_beam_clamps_active_count() {
        let g = ArrayGeometry::ula(4);
        let w = wide_beam(&g, 0.0, 100);
        // active clamped to 4 → identical to the full single beam
        let s = single_beam(&g, 0.0);
        for (a, b) in w.as_slice().iter().zip(s.as_slice()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }
}
