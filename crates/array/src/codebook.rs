//! Single-beam codebooks for beam training.
//!
//! Practical systems program a limited set of angular directions
//! (64–1024, §5.1) into the beamforming FPGA; beam training scans this
//! codebook via SSB probes. The paper performs 120° scans (§3.2's
//! measurement study and §6's experiments), which
//! [`Codebook::paper_scan`] mirrors.

use crate::geometry::ArrayGeometry;
use crate::steering::single_beam;
use crate::weights::BeamWeights;

/// A set of single-beam weight vectors at fixed angles.
#[derive(Clone, Debug)]
pub struct Codebook {
    angles_deg: Vec<f64>,
    beams: Vec<BeamWeights>,
}

impl Codebook {
    /// Uniformly spaced beams across `[-span_deg/2, +span_deg/2]`.
    /// Panics if `n_beams == 0` or `span_deg <= 0`.
    // xtask-allow(hot-path-closure): codebook construction happens once per acquisition scan, not per slot; the beams are then reused read-only
    pub fn uniform(geom: &ArrayGeometry, n_beams: usize, span_deg: f64) -> Self {
        assert!(n_beams > 0, "codebook needs at least one beam");
        assert!(span_deg > 0.0, "span must be positive");
        let angles_deg: Vec<f64> = (0..n_beams)
            .map(|i| Self::uniform_angle_deg(n_beams, span_deg, i))
            .collect();
        let beams = angles_deg.iter().map(|&a| single_beam(geom, a)).collect();
        Self { angles_deg, beams }
    }

    /// Steering angle (degrees) of beam `i` of [`Codebook::uniform`]`(_,
    /// n_beams, span_deg)`, without building the codebook: scans that
    /// probe a few of its beams steer each one into a reused buffer.
    pub fn uniform_angle_deg(n_beams: usize, span_deg: f64, i: usize) -> f64 {
        debug_assert!(i < n_beams);
        if n_beams == 1 {
            0.0
        } else {
            -span_deg / 2.0 + span_deg * i as f64 / (n_beams - 1) as f64
        }
    }

    /// The paper's default training scan: 64 beams over 120°.
    pub fn paper_scan(geom: &ArrayGeometry) -> Self {
        Self::uniform(geom, 64, 120.0)
    }

    /// Number of beams.
    pub fn len(&self) -> usize {
        self.beams.len()
    }

    /// True if the codebook has no beams (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.beams.is_empty()
    }

    /// Steering angle (degrees) of beam `i`.
    pub fn angle_deg(&self, i: usize) -> f64 {
        debug_assert!(i < self.angles_deg.len());
        self.angles_deg[i]
    }

    /// Weights of beam `i`.
    pub fn beam(&self, i: usize) -> &BeamWeights {
        debug_assert!(i < self.beams.len());
        &self.beams[i]
    }

    /// All steering angles.
    pub fn angles(&self) -> &[f64] {
        &self.angles_deg
    }

    /// Iterates `(angle_deg, weights)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &BeamWeights)> {
        self.angles_deg.iter().copied().zip(self.beams.iter())
    }

    /// Index of the codebook beam closest to `angle_deg`.
    pub fn nearest(&self, angle_deg: f64) -> usize {
        self.angles_deg
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| (*a - angle_deg).abs().total_cmp(&(*b - angle_deg).abs()))
            .map(|(i, _)| i)
            .expect("codebook is non-empty")
    }

    /// Angular spacing between adjacent beams (degrees); 0 for a single beam.
    pub fn beam_spacing_deg(&self) -> f64 {
        if self.angles_deg.len() < 2 {
            0.0
        } else {
            self.angles_deg[1] - self.angles_deg[0]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_spans_requested_range() {
        let g = ArrayGeometry::ula(8);
        let cb = Codebook::uniform(&g, 5, 120.0);
        assert_eq!(cb.len(), 5);
        assert_eq!(cb.angle_deg(0), -60.0);
        assert_eq!(cb.angle_deg(4), 60.0);
        assert_eq!(cb.angle_deg(2), 0.0);
        assert!((cb.beam_spacing_deg() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn paper_scan_dimensions() {
        let cb = Codebook::paper_scan(&ArrayGeometry::ula(8));
        assert_eq!(cb.len(), 64);
        assert_eq!(cb.angle_deg(0), -60.0);
        assert_eq!(cb.angle_deg(63), 60.0);
    }

    #[test]
    fn beams_are_unit_norm() {
        let cb = Codebook::uniform(&ArrayGeometry::ula(16), 9, 90.0);
        for (_, w) in cb.iter() {
            assert!((w.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn nearest_picks_closest() {
        let cb = Codebook::uniform(&ArrayGeometry::ula(8), 5, 120.0);
        assert_eq!(cb.nearest(-59.0), 0);
        assert_eq!(cb.nearest(13.0), 2);
        assert_eq!(cb.nearest(16.0), 3);
        assert_eq!(cb.nearest(100.0), 4);
    }

    #[test]
    fn uniform_angles_without_the_codebook_are_bitwise_its_angles() {
        let g = ArrayGeometry::paper_8x8();
        for (n, span) in [(1, 120.0), (5, 120.0), (16, 120.0), (64, 120.0), (64, 90.0)] {
            let cb = Codebook::uniform(&g, n, span);
            for i in 0..n {
                let a = Codebook::uniform_angle_deg(n, span, i);
                assert_eq!(
                    a.to_bits(),
                    cb.angle_deg(i).to_bits(),
                    "{n} beams, beam {i}"
                );
            }
        }
    }

    #[test]
    fn single_beam_codebook() {
        let cb = Codebook::uniform(&ArrayGeometry::ula(8), 1, 120.0);
        assert_eq!(cb.len(), 1);
        assert_eq!(cb.angle_deg(0), 0.0);
        assert_eq!(cb.beam_spacing_deg(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one beam")]
    fn rejects_empty() {
        Codebook::uniform(&ArrayGeometry::ula(8), 0, 120.0);
    }
}
