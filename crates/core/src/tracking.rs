//! Proactive per-beam mobility tracking (paper §4.2, Eq. 18–20).
//!
//! Each beam's received power is a sample of the transmit pattern
//! `G_T(φ_k + φ_k(t))`; as the user moves, the power walks down the main
//! lobe. The tracker smooths the noisy per-beam power sequence (EWMA with
//! forgetting factor + short quadratic fit, §6.1), converts the drop from
//! the aligned baseline into `|Δθ|` through the inverse pattern, and leaves
//! the ± ambiguity to one extra probe (handled by the controller).

use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::pattern::invert_gain_drop;
use mmwave_dsp::fit::polyfit;
use mmwave_dsp::stats::Ewma;

/// Per-beam tracking state.
#[derive(Clone, Debug)]
pub struct BeamTracker {
    /// Beam's current steering angle, degrees.
    pub angle_deg: f64,
    /// Power (dB) measured right after the last (re-)alignment — the
    /// reference for drop computation.
    pub baseline_db: f64,
    /// EWMA smoother over raw per-beam powers (dB).
    ewma: Ewma,
    /// Short history of smoothed powers for the quadratic fit.
    history: Vec<f64>,
    /// Maximum history length.
    window: usize,
}

/// One tracking update's outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrackerUpdate {
    /// Smoothed power, dB.
    pub smoothed_db: f64,
    /// Drop relative to the post-alignment baseline, dB (≥ 0 when degraded).
    pub drop_db: f64,
    /// Instantaneous change vs the previous round, dB (negative = falling).
    pub delta_db: f64,
    /// Estimated angular deviation magnitude, degrees, when the drop is
    /// attributable to main-lobe misalignment.
    pub deviation_deg: Option<f64>,
}

impl BeamTracker {
    /// Creates a tracker for a beam at `angle_deg` whose aligned power is
    /// `baseline_db`.
    // xtask-allow(hot-path-closure): constructor allocates the history ring once per tracked beam at establishment time
    pub fn new(angle_deg: f64, baseline_db: f64, ewma_alpha: f64, window: usize) -> Self {
        assert!(window >= 2, "window must hold at least two samples");
        Self {
            angle_deg,
            baseline_db,
            ewma: Ewma::new(ewma_alpha),
            history: Vec::with_capacity(window),
            window,
        }
    }

    /// Feeds one per-beam power measurement (dB) and returns the update.
    pub fn update(&mut self, geom: &ArrayGeometry, power_db: f64) -> TrackerUpdate {
        let prev = self.history.last().copied();
        let smoothed = self.ewma.update(power_db);
        if self.history.len() == self.window {
            self.history.remove(0);
        }
        self.history.push(smoothed);
        // Quadratic de-noising over the window (§6.1): evaluate the fit at
        // the newest sample instead of trusting it raw.
        let denoised = self.fitted_latest().unwrap_or(smoothed);
        let drop_db = (self.baseline_db - denoised).max(0.0);
        let deviation_deg = invert_gain_drop(geom, self.angle_deg, drop_db);
        TrackerUpdate {
            smoothed_db: denoised,
            drop_db,
            delta_db: prev.map(|p| smoothed - p).unwrap_or(0.0),
            deviation_deg,
        }
    }

    /// Quadratic fit over the history (sample `i` at `x = i`), evaluated at
    /// the newest point.
    fn fitted_latest(&self) -> Option<f64> {
        let n = self.history.len();
        if n < 3 {
            return None;
        }
        let samples = self.history.iter().enumerate();
        let fit = polyfit::<3>(samples.map(|(i, &y)| (i as f64, y)))?;
        Some(fit.eval((n - 1) as f64))
    }

    /// Re-anchors the tracker after a (re-)alignment: new steering angle
    /// and fresh baseline; history is cleared.
    pub fn realign(&mut self, new_angle_deg: f64, new_baseline_db: f64) {
        self.angle_deg = new_angle_deg;
        self.baseline_db = new_baseline_db;
        self.ewma.reset();
        self.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_array::pattern::ula_gain_rel;
    use mmwave_dsp::rng::Rng64;
    use mmwave_dsp::units::db_from_pow;

    fn geom() -> ArrayGeometry {
        ArrayGeometry::ula(8)
    }

    /// Power (dB) a beam at `steer` sees from a user at `steer + dev`.
    fn beam_power_db(steer: f64, dev: f64, p0_db: f64) -> f64 {
        let g = ula_gain_rel(8, 0.5, steer, steer + dev);
        p0_db + db_from_pow((g * g).max(1e-12))
    }

    #[test]
    fn aligned_beam_reports_zero_deviation() {
        let mut t = BeamTracker::new(0.0, -50.0, 0.5, 5);
        let u = t.update(&geom(), -50.0);
        assert_eq!(u.drop_db, 0.0);
        assert_eq!(u.deviation_deg, Some(0.0));
    }

    #[test]
    fn recovers_known_deviation_noiseless() {
        let mut t = BeamTracker::new(10.0, -50.0, 1.0, 5);
        for dev in [2.0_f64, 4.0, 6.0] {
            t.realign(10.0, -50.0);
            let mut last = None;
            for _ in 0..4 {
                last = Some(t.update(&geom(), beam_power_db(10.0, dev, -50.0)));
            }
            let est = last.unwrap().deviation_deg.expect("invertible");
            assert!((est - dev).abs() < 0.3, "dev {dev}: est {est}");
        }
    }

    #[test]
    fn smoothing_beats_raw_noise() {
        // ±1.5 dB measurement noise; the 1° mean-error claim (§6.1/Fig 17b)
        // depends on the EWMA + quadratic smoothing.
        let mut rng = Rng64::seed(8);
        let dev = 4.0;
        let mut t = BeamTracker::new(0.0, -50.0, 0.4, 8);
        let mut final_est = 0.0;
        for _ in 0..8 {
            let noisy = beam_power_db(0.0, dev, -50.0) + rng.normal_with(0.0, 1.0);
            if let Some(d) = t.update(&geom(), noisy).deviation_deg {
                final_est = d;
            }
        }
        assert!((final_est - dev).abs() < 1.2, "est {final_est} vs {dev}");
    }

    #[test]
    fn rapid_drop_reflected_in_delta() {
        let mut t = BeamTracker::new(0.0, -50.0, 1.0, 5);
        t.update(&geom(), -50.0);
        let u = t.update(&geom(), -65.0);
        assert!(u.delta_db < -10.0, "delta {}", u.delta_db);
    }

    #[test]
    fn deep_fade_is_not_invertible() {
        // A 40 dB drop can't come from main-lobe misalignment.
        let mut t = BeamTracker::new(0.0, -50.0, 1.0, 5);
        let u = t.update(&geom(), -90.0);
        assert_eq!(u.deviation_deg, None);
    }

    #[test]
    fn realign_resets_state() {
        let mut t = BeamTracker::new(0.0, -50.0, 0.5, 5);
        t.update(&geom(), -55.0);
        t.update(&geom(), -56.0);
        t.realign(3.0, -49.0);
        assert_eq!(t.angle_deg, 3.0);
        assert!(t.history.is_empty());
        let u = t.update(&geom(), -49.0);
        assert_eq!(u.drop_db, 0.0);
    }

    #[test]
    fn improving_power_clamps_drop_at_zero() {
        let mut t = BeamTracker::new(0.0, -50.0, 1.0, 5);
        let u = t.update(&geom(), -45.0);
        assert_eq!(u.drop_db, 0.0);
        assert_eq!(u.deviation_deg, Some(0.0));
    }
}
