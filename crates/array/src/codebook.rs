//! The uniform single-beam codebook that beam training scans.
//!
//! Practical systems program a limited set of angular directions
//! (64–1024, §5.1) into the beamforming FPGA; beam training scans this
//! codebook via SSB probes. The paper performs 120° scans of 64 beams
//! (§3.2's measurement study and §6's experiments). No scan owns the
//! codebook's beams: each steers the beam it probes, at
//! [`uniform_angle_deg`], into one reused buffer.

/// Beams in the paper's training scan.
pub const PAPER_SCAN_BEAMS: usize = 64;

/// Angular span of every training scan, degrees.
pub const SCAN_SPAN_DEG: f64 = 120.0;

/// Steering angle (degrees) of beam `i` of `n_beams` spaced uniformly
/// across `[-SCAN_SPAN_DEG/2, +SCAN_SPAN_DEG/2]`; a single beam points at
/// broadside.
pub fn uniform_angle_deg(n_beams: usize, i: usize) -> f64 {
    debug_assert!(i < n_beams);
    if n_beams == 1 {
        0.0
    } else {
        -SCAN_SPAN_DEG / 2.0 + SCAN_SPAN_DEG * i as f64 / (n_beams - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_spans_the_scan() {
        assert_eq!(uniform_angle_deg(5, 0), -60.0);
        assert_eq!(uniform_angle_deg(5, 2), 0.0);
        assert_eq!(uniform_angle_deg(5, 4), 60.0);
        assert!((uniform_angle_deg(5, 1) - uniform_angle_deg(5, 0) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn sixty_four_beams_span_120_degrees() {
        assert_eq!(uniform_angle_deg(PAPER_SCAN_BEAMS, 0), -60.0);
        assert_eq!(uniform_angle_deg(PAPER_SCAN_BEAMS, 63), 60.0);
    }

    #[test]
    fn single_beam_points_at_broadside() {
        assert_eq!(uniform_angle_deg(1, 0), 0.0);
    }
}
