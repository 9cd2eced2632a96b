//! Per-element sinusoidal gain drift.
//!
//! Aging and temperature cycling make every element's gain wander about
//! its nominal value. [`GainDrift`] scales element `i` by
//! `10^{G·sin(ωt + φᵢ)/20}`: peak drift `G` dB, period `2π/ω`, and a
//! phase `φᵢ` drawn per element at construction. The fault layer applies
//! it to every radiated beam, data slots included, so it is on the
//! per-slot path.
//!
//! [`GainDrift::apply`] evaluates it by angle addition. Construction
//! stores each element's lane `(κ·cos φᵢ, κ·sin φᵢ)` with `κ = G·ln10/20`;
//! a call takes one `(ωt).sin_cos()`, then, per element, forms
//! `sin ωt·κcos φᵢ + cos ωt·κsin φᵢ` and scales the element by the
//! branch-free [`crate::math::exp`] of it, in one vectorisable pass.

use crate::complex::Complex64;
use crate::math::exp;
use crate::rng::Rng64;
use mmwave_hotpath::hot_path;

/// Sinusoidal per-element gain drift over an array of fixed size.
#[derive(Clone, Debug)]
pub struct GainDrift {
    /// Per-element lane `(κ·cos φᵢ, κ·sin φᵢ)`, `κ = G·ln10/20`.
    lanes: Vec<(f64, f64)>,
    /// `κ`: the lane of an element past the end of `lanes` (phase 0).
    kappa: f64,
    /// The drift period, seconds.
    period_s: f64,
}

impl GainDrift {
    /// Drift of `peak_db` over `period_s` for `n` elements, one phase per
    /// element drawn uniformly from `rng` in element order.
    pub fn new(peak_db: f64, period_s: f64, n: usize, rng: &mut Rng64) -> Self {
        let kappa = peak_db * std::f64::consts::LN_10 / 20.0;
        let lanes = (0..n)
            .map(|_| {
                let (s, c) = rng.uniform_in(0.0, std::f64::consts::TAU).sin_cos();
                (kappa * c, kappa * s)
            })
            .collect();
        Self {
            lanes,
            kappa,
            period_s,
        }
    }

    /// Scales `v` in place by the drift gains at time `t_s`. An element
    /// past the array's size drifts with phase 0. Allocation-free; runs
    /// the AVX2 twin when the CPU has AVX2 (DESIGN.md §8, *Twin kernels*).
    #[hot_path]
    pub fn apply(&self, t_s: f64, v: &mut [Complex64]) {
        let omega = std::f64::consts::TAU / self.period_s;
        let wt = (omega * t_s).sin_cos();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, the twin's only requirement.
            return unsafe { apply_avx2(self, wt, v) };
        }
        apply_baseline(self, wt, v);
    }
}

/// [`GainDrift::apply`] compiled for the baseline target.
fn apply_baseline(drift: &GainDrift, wt: (f64, f64), v: &mut [Complex64]) {
    apply_body(drift, wt, v);
}

/// [`GainDrift::apply`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn apply_avx2(drift: &GainDrift, wt: (f64, f64), v: &mut [Complex64]) {
    apply_body(drift, wt, v);
}

/// `x ← x·exp(sin ωt·kc + cos ωt·ks)` for each element `x` and its lane
/// `(kc, ks)`, given `wt = (sin ωt, cos ωt)`.
#[inline(always)]
fn apply_body(drift: &GainDrift, (sin_wt, cos_wt): (f64, f64), v: &mut [Complex64]) {
    let covered = v.len().min(drift.lanes.len());
    let (head, tail) = v.split_at_mut(covered);
    for (x, &(kc, ks)) in head.iter_mut().zip(&drift.lanes) {
        *x = x.scale(exp(sin_wt * kc + cos_wt * ks));
    }
    for x in tail {
        *x = x.scale(exp(sin_wt * drift.kappa + cos_wt * 0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn elements_past_the_array_drift_with_phase_zero() {
        let mut rng = Rng64::seed(4);
        let drift = GainDrift::new(3.0, 1.0, 2, &mut rng);
        let mut v = vec![c64(1.0, -1.0); 3];
        drift.apply(0.25, &mut v);
        // sin(ω·0.25 + 0) = 1 at a quarter period: the peak gain.
        let peak = 10f64.powf(3.0 / 20.0);
        assert!((v[2].re - peak).abs() < 1e-12 && (v[2].im + peak).abs() < 1e-12);
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
            let mut rng = Rng64::seed(13);
            // A 6400 dB peak drives `exp` past overflow and into the
            // subnormal range.
            for (n, peak_db) in [0usize, 1, 63, 64, 65, 264]
                .iter()
                .flat_map(|&n| [(n, 2.5), (n, 6400.0)])
            {
                // Lanes for all but the last element, so both the lane
                // pass and the phase-0 tail run.
                let drift = GainDrift::new(peak_db, 0.7, n.saturating_sub(1), &mut rng);
                let v: Vec<Complex64> = (0..n)
                    .map(|i| match i % 5 {
                        2 => c64(
                            special[rng.index(special.len())],
                            special[rng.index(special.len())],
                        ),
                        _ => rng.complex_normal(),
                    })
                    .collect();
                for t in [0.0, 0.013, 2.4] {
                    let omega = std::f64::consts::TAU / drift.period_s;
                    let wt = (omega * t).sin_cos();
                    let (mut base, mut avx2) = (v.clone(), v.clone());
                    apply_baseline(&drift, wt, &mut base);
                    // SAFETY: the CPU supports AVX2 (checked above).
                    unsafe { apply_avx2(&drift, wt, &mut avx2) };
                    let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
                        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
                    };
                    assert_eq!(bits(&base), bits(&avx2), "n = {n}, {peak_db} dB, t = {t}");
                }
            }
        }
    }
}
