//! Property-based tests for the phased-array model.

use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::multibeam::MultiBeam;
use mmwave_array::pattern::{array_factor, invert_gain_drop, ula_gain_rel};
use mmwave_array::quantize::Quantizer;
use mmwave_array::steering::{
    azimuth_row_into, fold_columns_into, folded_array_factor, single_beam, single_beam_into,
    steering_vector, steering_vector_az_el_into, steering_vector_into,
};
use mmwave_array::weights::BeamWeights;
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::rng::Rng64;
use mmwave_dsp::units::db_from_pow;
use proptest::prelude::*;
use std::f64::consts::PI;

fn angle() -> impl Strategy<Value = f64> {
    -60.0..60.0f64
}

proptest! {
    #[test]
    fn single_beam_always_unit_norm(n in 1usize..64, a in angle()) {
        let w = single_beam(&ArrayGeometry::ula(n), a);
        prop_assert!((w.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn peak_gain_is_n_at_steering_angle(n in 1usize..64, a in angle()) {
        let g = ArrayGeometry::ula(n);
        let w = single_beam(&g, a);
        let p = array_factor(&g, &w, a).norm_sqr();
        prop_assert!((p - n as f64).abs() < 1e-6 * n as f64);
    }

    #[test]
    fn gain_never_exceeds_n(n in 2usize..32, steer in angle(), theta in angle()) {
        let g = ArrayGeometry::ula(n);
        let w = single_beam(&g, steer);
        let p = array_factor(&g, &w, theta).norm_sqr();
        prop_assert!(p <= n as f64 * (1.0 + 1e-9));
    }

    #[test]
    fn closed_form_pattern_matches_array_factor(n in 2usize..32, steer in angle(), theta in angle()) {
        let g = ArrayGeometry::ula(n);
        let w = single_beam(&g, steer);
        let exact = array_factor(&g, &w, theta).abs() / (n as f64).sqrt();
        let closed = ula_gain_rel(n, 0.5, steer, theta);
        prop_assert!((exact - closed).abs() < 1e-6);
    }

    #[test]
    fn multibeam_weights_unit_norm(
        phi1 in angle(), phi2 in angle(), delta in 0.01..1.5f64, sigma in 0.0..std::f64::consts::TAU
    ) {
        let mb = MultiBeam::two_beam(phi1, phi2, delta, sigma);
        let w = mb.weights(&ArrayGeometry::ula(16));
        prop_assert!((w.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantization_preserves_power(steer in angle(), n_exp in 2u32..6) {
        let n = 1usize << n_exp;
        let w = single_beam(&ArrayGeometry::ula(n), steer);
        for q in [Quantizer::paper_array(), Quantizer::commercial_80211ad()] {
            let out = q.quantize(&w);
            prop_assert!((out.norm() - w.norm()).abs() < 1e-9);
        }
    }

    #[test]
    fn quantized_beam_keeps_most_gain(steer in -55.0..55.0f64) {
        let g = ArrayGeometry::ula(8);
        let w = single_beam(&g, steer);
        let q = Quantizer::paper_array().quantize(&w);
        let ideal = array_factor(&g, &w, steer).abs();
        let quant = array_factor(&g, &q, steer).abs();
        prop_assert!(quant > 0.9 * ideal, "quantized gain {quant} vs {ideal}");
    }

    #[test]
    fn invert_gain_drop_round_trips(steer in -30.0..30.0f64, frac in 0.05..0.85f64) {
        // Pick a deviation within the main lobe, compute its drop, invert.
        let g = ArrayGeometry::ula(8);
        let null = mmwave_array::pattern::first_null_offset_deg(&g, steer, 1.0);
        let dtheta = frac * null;
        let gain = ula_gain_rel(8, 0.5, steer, steer + dtheta);
        prop_assume!(gain > 1e-3);
        let drop_db = -db_from_pow(gain * gain);
        let est = invert_gain_drop(&g, steer, drop_db);
        prop_assert!(est.is_some());
        prop_assert!((est.unwrap() - dtheta).abs() < 0.1, "Δθ {dtheta} est {:?}", est);
    }

    #[test]
    fn steering_vector_elements_unit_magnitude(n in 1usize..64, az in angle(), el in -30.0..30.0f64) {
        let g = ArrayGeometry::upa(n.clamp(1, 8), 4);
        let a = mmwave_array::steering::steering_vector_az_el(&g, az, el);
        for v in &a {
            prop_assert!((v.abs() - 1.0).abs() < 1e-9);
        }
        let _ = steering_vector(&g, az);
    }
}

// ---------------------------------------------------------------------------
// Zero-elevation kernels (tiled phasor-recurrence rows, column fold) vs
// the per-element expression
// ---------------------------------------------------------------------------

/// The per-element steering expression `cis(-2π·(x·su + y·sv))` the tiled
/// kernels replace, evaluated for every element into `out`.
fn reference_steering(geom: &ArrayGeometry, az_deg: f64, el_deg: f64, out: &mut Vec<Complex64>) {
    let su = az_deg.to_radians().sin();
    let sv = el_deg.to_radians().sin();
    out.clear();
    out.extend((0..geom.num_elements()).map(|i| {
        Complex64::cis(
            -2.0 * PI * (geom.azimuth_position_wl(i) * su + geom.elevation_position_wl(i) * sv),
        )
    }));
}

fn assert_bits_eq(got: &[Complex64], want: &[Complex64], geom: &ArrayGeometry, az: f64, el: f64) {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, e)| g.re.to_bits() == e.re.to_bits() && g.im.to_bits() == e.im.to_bits());
    assert!(same, "{geom:?} az {az} el {el}: {got:?} vs {want:?}");
}

fn tiling_geometries() -> Vec<ArrayGeometry> {
    let mut geoms: Vec<ArrayGeometry> = (1..=16).map(ArrayGeometry::ula).collect();
    geoms.push(ArrayGeometry::paper_8x8());
    geoms.push(ArrayGeometry::upa(4, 2));
    geoms.extend([1, 2, 5, 8].map(|n| ArrayGeometry::upa(1, n)));
    geoms
}

/// Seeded sweep size: 100 000 natively, a few hundred under Miri, whose
/// interpreter would take hours over the full sweep.
const fn sweep(native: usize) -> usize {
    if cfg!(miri) {
        native / 500
    } else {
        native
    }
}

/// 100 000 seeded azimuths over the full circle plus the edge cases:
/// signed zeros, the ±90° extremes, ±180° (where `sin` is a tiny signed
/// value), tiny and subnormal angles and NaN.
fn tiling_azimuths() -> Vec<f64> {
    let mut rng = Rng64::seed(0x7113_D0A2);
    let mut az = vec![
        0.0,
        -0.0,
        90.0,
        -90.0,
        180.0,
        -180.0,
        1e-300,
        -1e-300,
        5e-324,
        -5e-324,
        f64::NAN,
    ];
    az.extend((0..sweep(100_000)).map(|_| rng.uniform_in(-180.0, 180.0)));
    az
}

/// Per-element bound on the zero-elevation kernels' error against the
/// per-element `cis`. The phasor recurrence grows about an ulp per column;
/// the largest error measured over this sweep (ULAs of 1–16 elements and
/// the UPAs, up to 16 columns) is below 10⁻¹⁴, and 1.7·10⁻¹³ over ULAs of
/// up to 256 elements, so this keeps ~10× margin over the latter.
const TILED_TOL: f64 = 2e-12;

/// `got` matches `want` element by element within [`TILED_TOL`], and is
/// NaN exactly where `want` is (NaN in gives NaN out).
fn assert_close(got: &[Complex64], want: &[Complex64], geom: &ArrayGeometry, az: f64) {
    assert_eq!(got.len(), want.len(), "{geom:?} az {az}");
    for (g, e) in got.iter().zip(want) {
        if e.is_bad() {
            assert!(
                g.re.is_nan() && g.im.is_nan(),
                "{geom:?} az {az}: {g:?} vs {e:?}"
            );
        } else {
            assert!(
                (*g - *e).abs() <= TILED_TOL,
                "{geom:?} az {az}: {g:?} vs {e:?}"
            );
        }
    }
}

#[test]
fn tiled_kernels_match_per_element_within_bound() {
    let geoms = tiling_geometries();
    let (mut want, mut got) = (Vec::new(), Vec::new());
    let mut beam = BeamWeights::muted(1);
    for (k, az) in tiling_azimuths().into_iter().enumerate() {
        for g in &geoms {
            reference_steering(g, az, 0.0, &mut want);
            steering_vector_into(g, az, &mut got);
            assert_close(&got, &want, g, az);
            let n = (g.num_elements() as f64).sqrt();
            for v in &mut want {
                *v = v.conj() / n;
            }
            single_beam_into(g, az, &mut beam);
            assert_close(beam.as_slice(), &want, g, az);
            // `single_beam_into` (and so `single_beam`) is the tiled
            // `steering_vector`, conjugated and scaled, bit for bit.
            if k % 64 == 0 {
                let conj: Vec<Complex64> = steering_vector(g, az)
                    .into_iter()
                    .map(|v| v.conj() / n)
                    .collect();
                assert_bits_eq(&conj, beam.as_slice(), g, az, 0.0);
                assert_bits_eq(single_beam(g, az).as_slice(), beam.as_slice(), g, az, 0.0);
            }
        }
    }
}

#[test]
fn long_array_rows_stay_within_bound() {
    // The recurrence error grows with the column count: sample ULAs up to
    // 256 elements (and the folded-factor identity on the 8×8 UPA).
    let mut rng = Rng64::seed(0x5EED_0256);
    let (mut want, mut got, mut row, mut folded) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let upa = ArrayGeometry::paper_8x8();
    for _ in 0..sweep(2_000) {
        let az = rng.uniform_in(-180.0, 180.0);
        for n in [32, 64, 128, 256] {
            let g = ArrayGeometry::ula(n);
            reference_steering(&g, az, 0.0, &mut want);
            steering_vector_into(&g, az, &mut got);
            assert_close(&got, &want, &g, az);
        }
        // a(φ)ᵀw from the folded columns equals the full inner product.
        let w = single_beam(&upa, rng.uniform_in(-60.0, 60.0));
        reference_steering(&upa, az, 0.0, &mut want);
        azimuth_row_into(&upa, az, &mut row);
        fold_columns_into(&upa, &w, &mut folded);
        let full = w.apply(&want);
        assert!((folded_array_factor(&row, &folded) - full).abs() <= 8.0 * TILED_TOL);
    }
}

#[test]
fn nonzero_elevation_steering_matches_per_element() {
    // Any elevation whose sine is not `+0.0` — `-0.0` included — takes the
    // per-element loop and must keep its bits.
    let mut rng = Rng64::seed(0xE1E7);
    let geoms = [
        ArrayGeometry::paper_8x8(),
        ArrayGeometry::upa(4, 2),
        ArrayGeometry::upa(1, 5),
        ArrayGeometry::ula(7),
    ];
    let (mut want, mut got) = (Vec::new(), Vec::new());
    for _ in 0..sweep(5_000) {
        let az = rng.uniform_in(-180.0, 180.0);
        for el in [-0.0, 1e-300, 3.0, -25.0, rng.uniform_in(-90.0, 90.0)] {
            for g in &geoms {
                reference_steering(g, az, el, &mut want);
                steering_vector_az_el_into(g, az, el, &mut got);
                assert_bits_eq(&got, &want, g, az, el);
            }
        }
    }
}
