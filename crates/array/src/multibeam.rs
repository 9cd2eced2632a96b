//! Constructive multi-beam synthesis.
//!
//! The paper's core beamforming object (Eq. 10 for two beams, Eq. 29 for K):
//!
//! ```text
//! w(φ₁..φ_K, δ..., σ...) = ( Σ_b δ_b·e^{-jσ_b}·w_{φ_b} ) / ‖·‖
//! ```
//!
//! Each component carries an angle, a relative amplitude `δ_b` (δ₁ = 1 by
//! convention — the first beam is the reference), and a relative phase
//! `σ_b`. The denominator restores `‖w‖ = 1`, conserving total radiated
//! power, so splitting into more beams never radiates more energy — the
//! SNR gain comes purely from coherent combining at the receiver.

use crate::geometry::ArrayGeometry;
use crate::steering::{push_azimuth_row, single_beam_weight};
use crate::weights::BeamWeights;
use mmwave_dsp::complex::{normalize_in_place, Complex64};

/// One constituent beam of a multi-beam.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BeamComponent {
    /// Steering angle, degrees.
    pub angle_deg: f64,
    /// Relative amplitude δ (linear, ≥ 0; the reference beam uses 1.0).
    pub amplitude: f64,
    /// Relative phase σ, radians.
    pub phase_rad: f64,
}

impl BeamComponent {
    /// Reference component: amplitude 1, phase 0.
    pub fn reference(angle_deg: f64) -> Self {
        Self {
            angle_deg,
            amplitude: 1.0,
            phase_rad: 0.0,
        }
    }

    /// Component with explicit relative amplitude/phase.
    pub fn new(angle_deg: f64, amplitude: f64, phase_rad: f64) -> Self {
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        Self {
            angle_deg,
            amplitude,
            phase_rad,
        }
    }

    /// Complex coefficient `δ·e^{-jσ}` this component contributes
    /// (the conjugated sign matches paper Eq. 10: the weight *cancels* the
    /// channel's relative phase).
    pub fn coefficient(&self) -> Complex64 {
        Complex64::from_polar(self.amplitude, -self.phase_rad)
    }
}

/// A multi-beam: an ordered set of [`BeamComponent`]s. Index 0 is the
/// reference beam (strongest path, usually LOS).
#[derive(Clone, Debug, PartialEq)]
pub struct MultiBeam {
    components: Vec<BeamComponent>,
}

impl MultiBeam {
    /// Builds a multi-beam from components. Panics on empty input.
    pub fn new(components: Vec<BeamComponent>) -> Self {
        assert!(
            !components.is_empty(),
            "multi-beam needs at least one component"
        );
        Self { components }
    }

    /// Degenerate single beam toward `angle_deg`.
    pub fn single(angle_deg: f64) -> Self {
        Self::new(vec![BeamComponent::reference(angle_deg)])
    }

    /// The paper's 2-beam constructor `w(φ₁, φ₂, δ, σ)` (Eq. 10).
    pub fn two_beam(phi1_deg: f64, phi2_deg: f64, delta: f64, sigma_rad: f64) -> Self {
        Self::new(vec![
            BeamComponent::reference(phi1_deg),
            BeamComponent::new(phi2_deg, delta, sigma_rad),
        ])
    }

    /// Number of constituent beams (K).
    pub fn num_beams(&self) -> usize {
        self.components.len()
    }

    /// Component accessor.
    pub fn component(&self, k: usize) -> &BeamComponent {
        debug_assert!(k < self.components.len());
        &self.components[k]
    }

    /// Mutable component accessor (used by the tracker to realign beams).
    pub fn component_mut(&mut self, k: usize) -> &mut BeamComponent {
        debug_assert!(k < self.components.len());
        &mut self.components[k]
    }

    /// All components.
    pub fn components(&self) -> &[BeamComponent] {
        &self.components
    }

    /// Steering angles of all beams, degrees.
    // xtask-allow(hot-path-closure): short per-call angle list used by acquisition/telemetry paths, not the slot loop
    pub fn angles_deg(&self) -> Vec<f64> {
        self.components.iter().map(|c| c.angle_deg).collect()
    }

    /// Synthesizes the unit-TRP weight vector on the given array
    /// (paper Eq. 10 / Eq. 29); the owned form of [`synthesize_into`].
    pub fn weights(&self, geom: &ArrayGeometry) -> BeamWeights {
        let mut w = BeamWeights::muted(geom.num_elements());
        synthesize_into(&self.components, geom, &mut w);
        w
    }
}

/// Writes the unit-TRP multi-beam `Σ_b δ_b·e^{-jσ_b}·w_{φ_b} / ‖·‖` of
/// `components` (paper Eq. 10 / Eq. 29) into `out`, reusing its allocation.
/// Each conjugate [`single_beam`](crate::steering::single_beam) is added
/// into a zeroed buffer in component order. Every row of a single beam
/// repeats the same `nx` column weights, so each is computed once and
/// added down its column.
pub fn synthesize_into(components: &[BeamComponent], geom: &ArrayGeometry, out: &mut BeamWeights) {
    out.set_muted(geom.num_elements());
    let w = out.as_mut_slice();
    for comp in components {
        let mut columns = AddToColumns {
            w: &mut *w,
            nx: geom.azimuth_elements(),
            coef: comp.coefficient(),
        };
        let su = comp.angle_deg.to_radians().sin();
        push_azimuth_row(geom, su, single_beam_weight(geom), &mut columns);
    }
    normalize_in_place(w);
}

/// A sink for one beam's row of column weights `b_c`: adds `coef·b_c` to
/// every element of column `c` of the tiled layout `w`. Column numbers
/// count from each `extend` call, so the row must arrive in one call, as
/// [`push_azimuth_row`] makes it.
struct AddToColumns<'a> {
    w: &'a mut [Complex64],
    nx: usize,
    coef: Complex64,
}

impl Extend<Complex64> for AddToColumns<'_> {
    fn extend<I: IntoIterator<Item = Complex64>>(&mut self, row: I) {
        for (col, b) in row.into_iter().enumerate() {
            let v = self.coef * b;
            for x in self.w.iter_mut().skip(col).step_by(self.nx) {
                *x += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{array_factor, power_gain_db};
    use crate::quantize::Quantizer;
    use crate::steering::{single_beam, steering_vector};

    #[test]
    fn single_component_equals_single_beam() {
        let g = ArrayGeometry::ula(8);
        let mb = MultiBeam::single(12.0).weights(&g);
        let sb = single_beam(&g, 12.0);
        for (a, b) in mb.as_slice().iter().zip(sb.as_slice()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    /// The synthesis as it stood before [`synthesize_into`]: one owned
    /// single beam per component, combined into a zeroed vector in
    /// component order, then renormalized.
    fn combined_single_beams(mb: &MultiBeam, g: &ArrayGeometry) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; g.num_elements()];
        for c in mb.components() {
            let beam = single_beam(g, c.angle_deg);
            for (o, v) in out.iter_mut().zip(beam.as_slice()) {
                *o += c.coefficient() * *v;
            }
        }
        normalize_in_place(&mut out);
        out
    }

    fn assert_bitwise(got: &[Complex64], want: &[Complex64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (a, b) in got.iter().zip(want) {
            assert_eq!(
                (a.re.to_bits(), a.im.to_bits()),
                (b.re.to_bits(), b.im.to_bits()),
                "{what}"
            );
        }
    }

    #[test]
    fn synthesis_and_quantization_into_a_reused_buffer_are_bitwise_the_owned_forms() {
        // The buffer last held a beam of another array.
        let mut w = MultiBeam::two_beam(5.0, -30.0, 0.4, 2.0).weights(&ArrayGeometry::ula(4));
        let cases = [
            (
                ArrayGeometry::paper_8x8(),
                MultiBeam::new(vec![
                    BeamComponent::reference(-12.5),
                    BeamComponent::new(31.0, 0.7, 1.1),
                    BeamComponent::new(-47.0, 0.35, -2.6),
                ]),
            ),
            // A muted (blocked) component still takes its turn.
            (
                ArrayGeometry::paper_8x8(),
                MultiBeam::new(vec![
                    BeamComponent::new(3.0, 0.0, 0.0),
                    BeamComponent::new(-22.0, 0.9, 0.4),
                ]),
            ),
            (
                ArrayGeometry::ula(16),
                MultiBeam::two_beam(0.0, 30.0, 1.0, -std::f64::consts::FRAC_PI_2),
            ),
            (ArrayGeometry::paper_8x8(), MultiBeam::single(17.0)),
        ];
        for (g, mb) in &cases {
            synthesize_into(mb.components(), g, &mut w);
            let owned = mb.weights(g);
            assert_bitwise(w.as_slice(), owned.as_slice(), "synthesis vs owned");
            assert_bitwise(
                w.as_slice(),
                &combined_single_beams(mb, g),
                "synthesis vs combined single beams",
            );
            for q in [Quantizer::paper_array(), Quantizer::commercial_80211ad()] {
                synthesize_into(mb.components(), g, &mut w);
                q.quantize_in_place(&mut w);
                assert_bitwise(w.as_slice(), q.quantize(&owned).as_slice(), "quantized");
            }
        }
    }

    #[test]
    fn weights_are_unit_norm() {
        let g = ArrayGeometry::ula(16);
        let mb = MultiBeam::two_beam(0.0, 30.0, 0.7, 1.2);
        assert!((mb.weights(&g).norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_beam_pattern_has_two_lobes() {
        let g = ArrayGeometry::ula(16);
        let mb = MultiBeam::two_beam(-20.0, 25.0, 1.0, 0.0);
        let w = mb.weights(&g);
        let lobe1 = power_gain_db(&g, &w, -20.0);
        let lobe2 = power_gain_db(&g, &w, 25.0);
        let valley = power_gain_db(&g, &w, 2.0);
        assert!(lobe1 > valley + 6.0, "lobe1 {lobe1} valley {valley}");
        assert!(lobe2 > valley + 6.0, "lobe2 {lobe2} valley {valley}");
    }

    #[test]
    fn equal_split_halves_per_beam_power() {
        // δ = 1: each lobe's peak array factor power is ≈ N/2 (vs N for a
        // dedicated single beam) — the paper's intuition from §1.
        let g = ArrayGeometry::ula(16);
        let mb = MultiBeam::two_beam(-25.0, 25.0, 1.0, 0.0);
        let w = mb.weights(&g);
        let p1 = array_factor(&g, &w, -25.0).norm_sqr();
        let p2 = array_factor(&g, &w, 25.0).norm_sqr();
        assert!((p1 - 8.0).abs() < 0.5, "p1 {p1}");
        assert!((p2 - 8.0).abs() < 0.5, "p2 {p2}");
    }

    #[test]
    fn coefficient_conjugates_phase() {
        let c = BeamComponent::new(0.0, 2.0, 0.5);
        let z = c.coefficient();
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() + 0.5).abs() < 1e-12);
    }

    #[test]
    fn constructive_combining_beats_mismatched_phase() {
        // Channel: two equal paths, second with phase σ. Weight matched to σ
        // must beat weight with opposite phase.
        let g = ArrayGeometry::ula(16);
        let (phi1, phi2) = (-15.0, 35.0);
        let sigma = 1.0;
        // Effective channel: h = a(φ1) + e^{jσ}·a(φ2)
        let a1 = steering_vector(&g, phi1);
        let a2 = steering_vector(&g, phi2);
        let h: Vec<Complex64> = a1
            .iter()
            .zip(&a2)
            .map(|(x, y)| *x + Complex64::cis(sigma) * *y)
            .collect();
        let matched = MultiBeam::two_beam(phi1, phi2, 1.0, sigma).weights(&g);
        let mismatched =
            MultiBeam::two_beam(phi1, phi2, 1.0, sigma + std::f64::consts::PI).weights(&g);
        let p_m = matched.apply(&h).norm_sqr();
        let p_x = mismatched.apply(&h).norm_sqr();
        assert!(p_m > 3.0 * p_x, "matched {p_m} vs mismatched {p_x}");
    }

    #[test]
    fn three_beam_construction() {
        let g = ArrayGeometry::ula(16);
        let mb = MultiBeam::new(vec![
            BeamComponent::reference(0.0),
            BeamComponent::new(30.0, 0.6, 0.4),
            BeamComponent::new(-40.0, 0.4, -1.0),
        ]);
        assert_eq!(mb.num_beams(), 3);
        let w = mb.weights(&g);
        assert!((w.norm() - 1.0).abs() < 1e-12);
        // All three lobes present.
        for angle in [0.0, 30.0, -40.0] {
            let gain = power_gain_db(&g, &w, angle);
            assert!(gain > 0.0, "lobe at {angle}: {gain} dB");
        }
    }
}
