//! A single sparse propagation path.
//!
//! mmWave channels are sparse (paper §3.3): two-to-three viable paths —
//! the direct (LOS) ray plus one or two strong environmental reflections.
//! Each is fully described by its departure angle at the gNB, arrival angle
//! at the UE, complex gain, and time of flight (paper Eq. 25).

use mmwave_dsp::complex::Complex64;
use mmwave_dsp::units::{db_from_amp, pow_from_db};

/// How a path came to exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathKind {
    /// Direct line-of-sight ray.
    Los,
    /// Single bounce off a reflector (wall index in the scene).
    Reflected {
        /// Index of the reflecting wall in the owning scene.
        wall: usize,
    },
    /// Two bounces: first off `first`, then off `second`.
    DoubleReflected {
        /// Index of the first reflecting wall.
        first: usize,
        /// Index of the second reflecting wall.
        second: usize,
    },
}

/// One propagation path of the sparse geometric channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Path {
    /// Angle of departure at the gNB array, degrees from boresight.
    pub aod_deg: f64,
    /// Angle of arrival at the UE, degrees from the UE's boresight.
    pub aoa_deg: f64,
    /// Complex amplitude gain (linear; includes carrier phase `e^{-j2πd/λ}`).
    pub gain: Complex64,
    /// Time of flight, nanoseconds.
    pub tof_ns: f64,
    /// Provenance.
    pub kind: PathKind,
    /// Extra time-varying attenuation imposed by blockage, dB (≥ 0).
    pub blockage_db: f64,
}

impl Path {
    /// Creates an unblocked path.
    pub fn new(aod_deg: f64, aoa_deg: f64, gain: Complex64, tof_ns: f64, kind: PathKind) -> Self {
        Self {
            aod_deg,
            aoa_deg,
            gain,
            tof_ns,
            kind,
            blockage_db: 0.0,
        }
    }

    /// Effective complex gain including current blockage attenuation.
    pub fn effective_gain(&self) -> Complex64 {
        if self.blockage_db <= 0.0 {
            self.gain
        } else {
            self.gain.scale(pow_from_db(-self.blockage_db).sqrt())
        }
    }

    /// Attenuation of this path relative to a reference path, dB
    /// (positive when this path is weaker). This is the paper's `δ` in dB.
    pub fn rel_attenuation_db(&self, reference: &Path) -> f64 {
        db_from_amp(reference.effective_gain().abs() / self.effective_gain().abs())
    }

    /// The paper's relative-channel parameters w.r.t. a reference path:
    /// `(δ, σ)` with `h_this/h_ref = δ·e^{jσ}`.
    pub fn relative_to(&self, reference: &Path) -> (f64, f64) {
        let ratio = self.effective_gain() / reference.effective_gain();
        (ratio.abs(), ratio.arg())
    }

    /// True for the LOS path.
    pub fn is_los(&self) -> bool {
        matches!(self.kind, PathKind::Los)
    }
}

/// Returns indices of the `k` strongest paths (by effective gain),
/// strongest first.
pub fn strongest_paths(paths: &[Path], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..paths.len()).collect();
    idx.sort_by(|&a, &b| {
        paths[b]
            .effective_gain()
            .abs()
            .total_cmp(&paths[a].effective_gain().abs())
    });
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_dsp::complex::c64;

    fn path_with_gain(amp: f64) -> Path {
        Path::new(0.0, 0.0, c64(amp, 0.0), 20.0, PathKind::Los)
    }

    #[test]
    fn blockage_attenuates_gain() {
        let mut p = path_with_gain(1.0);
        assert!((p.effective_gain().abs() - 1.0).abs() < 1e-12);
        p.blockage_db = 20.0;
        assert!((p.effective_gain().abs() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn relative_parameters() {
        let reference = Path::new(0.0, 0.0, c64(1.0, 0.0), 20.0, PathKind::Los);
        let refl = Path::new(
            30.0,
            -20.0,
            Complex64::from_polar(0.5, 1.2),
            25.0,
            PathKind::Reflected { wall: 0 },
        );
        let (delta, sigma) = refl.relative_to(&reference);
        assert!((delta - 0.5).abs() < 1e-12);
        assert!((sigma - 1.2).abs() < 1e-12);
        assert!((refl.rel_attenuation_db(&reference) - 6.0206).abs() < 1e-3);
    }

    #[test]
    fn strongest_paths_ordering() {
        let paths = vec![
            path_with_gain(0.3),
            path_with_gain(1.0),
            path_with_gain(0.6),
        ];
        assert_eq!(strongest_paths(&paths, 2), vec![1, 2]);
        assert_eq!(strongest_paths(&paths, 10), vec![1, 2, 0]);
    }

    #[test]
    fn strongest_respects_blockage() {
        let mut a = path_with_gain(1.0);
        a.blockage_db = 30.0;
        let b = path_with_gain(0.5);
        assert_eq!(strongest_paths(&[a, b], 1), vec![1]);
    }

    #[test]
    fn kind_queries() {
        assert!(path_with_gain(1.0).is_los());
        let r = Path::new(
            0.0,
            0.0,
            c64(1.0, 0.0),
            1.0,
            PathKind::Reflected { wall: 2 },
        );
        assert!(!r.is_los());
    }
}
