//! Summary statistics, empirical CDFs, and smoothing.
//!
//! Used by the evaluation harness (reliability = fraction of time above the
//! SNR outage threshold, Eq. 1), the measurement-style studies (Fig. 4a
//! reflector-attenuation CDF), and the tracking smoother (EWMA with
//! forgetting factor + quadratic fit, §6.1).

/// Arithmetic mean. Returns NaN on an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return f64::NAN;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Population variance. Returns NaN on an empty slice.
pub fn variance(x: &[f64]) -> f64 {
    if x.is_empty() {
        return f64::NAN;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Population standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Linear-interpolated percentile, `q ∈ [0, 100]`. Returns NaN on empty input.
pub fn percentile(x: &[f64], q: f64) -> f64 {
    if x.is_empty() {
        return f64::NAN;
    }
    let mut sorted = x.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let q = q.clamp(0.0, 100.0);
    let pos = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(x: &[f64]) -> f64 {
    percentile(x, 50.0)
}

/// Minimum of a slice, NaN-safe. Returns NaN on empty input.
pub fn min(x: &[f64]) -> f64 {
    x.iter()
        .copied()
        .fold(f64::NAN, |a, b| if a.is_nan() || b < a { b } else { a })
}

/// Maximum of a slice, NaN-safe. Returns NaN on empty input.
pub fn max(x: &[f64]) -> f64 {
    x.iter()
        .copied()
        .fold(f64::NAN, |a, b| if a.is_nan() || b > a { b } else { a })
}

/// Empirical CDF evaluated at `n_points` evenly spaced values across the data
/// range; returns `(value, P(X ≤ value))` pairs. Useful for Fig. 4a-style
/// CDF plots.
pub fn empirical_cdf(x: &[f64], n_points: usize) -> Vec<(f64, f64)> {
    if x.is_empty() || n_points == 0 {
        return Vec::new();
    }
    let mut sorted = x.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let lo = sorted[0];
    let hi = sorted[sorted.len() - 1];
    let n = sorted.len() as f64;
    (0..n_points)
        .map(|i| {
            let v = if n_points == 1 {
                hi
            } else {
                lo + (hi - lo) * i as f64 / (n_points - 1) as f64
            };
            let count = sorted.partition_point(|&s| s <= v);
            (v, count as f64 / n)
        })
        .collect()
}

/// Exponentially-weighted moving average with forgetting factor
/// `alpha ∈ (0, 1]` (1 = no memory, track instantly).
#[derive(Clone, Debug)]
pub struct Ewma {
    alpha: f64,
    state: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA filter. Panics unless `0 < alpha ≤ 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, state: None }
    }

    /// Feeds one sample, returns the filtered value.
    pub fn update(&mut self, x: f64) -> f64 {
        let next = match self.state {
            None => x,
            Some(prev) => self.alpha * x + (1.0 - self.alpha) * prev,
        };
        self.state = Some(next);
        next
    }

    /// Current filtered value, if any sample has been seen.
    pub fn value(&self) -> Option<f64> {
        self.state
    }

    /// Clears the filter state.
    pub fn reset(&mut self) {
        self.state = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&x), 2.5);
        assert!((variance(&x) - 1.25).abs() < 1e-12);
        assert!((std_dev(&x) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_nan() {
        assert!(mean(&[]).is_nan());
        assert!(variance(&[]).is_nan());
        assert!(percentile(&[], 50.0).is_nan());
        assert!(min(&[]).is_nan());
        assert!(max(&[]).is_nan());
    }

    #[test]
    fn percentiles() {
        let x = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&x, 0.0), 1.0);
        assert_eq!(percentile(&x, 100.0), 5.0);
        assert_eq!(median(&x), 3.0);
        assert_eq!(percentile(&x, 25.0), 2.0);
        // Interpolation between ranks.
        let y = [0.0, 10.0];
        assert_eq!(percentile(&y, 50.0), 5.0);
    }

    #[test]
    fn min_max() {
        let x = [3.0, -1.0, 7.0];
        assert_eq!(min(&x), -1.0);
        assert_eq!(max(&x), 7.0);
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let x: Vec<f64> = (0..100).map(|i| (i as f64 * 7.3) % 13.0).collect();
        let cdf = empirical_cdf(&x, 25);
        assert_eq!(cdf.len(), 25);
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be non-decreasing");
        }
        assert!(cdf.last().unwrap().1 >= 1.0 - 1e-12);
        assert!(cdf[0].1 >= 0.0);
    }

    #[test]
    fn ewma_tracks_and_smooths() {
        let mut f = Ewma::new(0.5);
        assert_eq!(f.update(10.0), 10.0); // first sample passes through
        let v = f.update(0.0);
        assert_eq!(v, 5.0);
        assert_eq!(f.value(), Some(5.0));
        f.reset();
        assert_eq!(f.value(), None);
    }

    #[test]
    fn ewma_alpha_one_is_passthrough() {
        let mut f = Ewma::new(1.0);
        f.update(3.0);
        assert_eq!(f.update(7.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }
}
