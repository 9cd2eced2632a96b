//! Seeded random sampling helpers.
//!
//! A self-contained xoshiro256++ generator (seeded through SplitMix64) with
//! the distributions the simulator needs (standard normal via Box–Muller,
//! circularly-symmetric complex Gaussian), so that no external randomness
//! crate is required. Every stochastic component in the workspace takes one
//! of these explicitly — there is no global RNG, keeping simulations exactly
//! reproducible.
//!
//! Every Gaussian comes from one Box–Muller, `√(−2·ln u₁)·cos(2π·u₂)`, on
//! the branch-free in-crate kernels of [`crate::math`] (`ln` and
//! `cos_turn`) instead of the platform libm, so
//! [`Rng64::complex_normals_into`] evaluates them in separate vectorisable
//! passes over a batch. The scalar [`Rng64::normal`] runs the same
//! kernels, so the batch is bitwise equal to per-sample draws.

use crate::complex::{c64, Complex64};
use crate::math::{cos_turn, ln};
use mmwave_hotpath::hot_path;
use std::f64::consts::{FRAC_1_SQRT_2, PI};

/// Complex normals per pass of [`Rng64::complex_normals_into`]: its stack
/// scratch holds the uniforms of this many samples. Callers that scale the
/// batch on the fly size their own stack buffers with it.
pub const NORMAL_BATCH: usize = crate::math::BATCH;

/// The Box–Muller normal from its two uniforms: `√(−2·ln u₁)·cos(2π·u₂)`.
#[inline(always)]
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * ln(u1)).sqrt() * cos_turn(u2)
}

/// A seeded random source with DSP-oriented sampling methods.
///
/// The core generator is xoshiro256++ (Blackman & Vigna), whose 256-bit
/// state is expanded from the 64-bit seed with SplitMix64 — the standard
/// seeding recipe, which guarantees distinct, well-mixed states even for
/// adjacent seeds.
#[derive(Clone, Debug)]
pub struct Rng64 {
    s: [u64; 4],
}

/// One SplitMix64 step: advances `state` and returns the next output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Next raw 64-bit output (xoshiro256++).
    // xtask-allow(hot-path-panic): constant indices into the fixed [u64; 4] state are compile-time checked — no runtime bounds branch exists
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 top bits → the standard [0,1) double construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() needs a non-empty range");
        // Multiply-shift bounded sampling (Lemire); the tiny modulo bias of
        // the plain widening multiply is irrelevant at simulation scale.
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// The Box–Muller radius uniform: redraws until `u > 1e-300`, which
    /// guards `ln` against 0 (the only uniform it ever rejects).
    pub(crate) fn radius_uniform(&mut self) -> f64 {
        loop {
            let u = self.uniform();
            if u > 1e-300 {
                return u;
            }
        }
    }

    /// Standard normal sample (Box–Muller, on the module's kernels).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.radius_uniform();
        let u2 = self.uniform();
        box_muller(u1, u2)
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Circularly-symmetric complex Gaussian with unit variance
    /// (`E[|z|²] = 1`, i.e. each component has variance 1/2).
    pub fn complex_normal(&mut self) -> Complex64 {
        c64(self.normal() * FRAC_1_SQRT_2, self.normal() * FRAC_1_SQRT_2)
    }

    /// Fills `out` with [`Rng64::complex_normal`] samples, bitwise equal
    /// to calling it once per element and leaving the generator in the
    /// same state.
    ///
    /// Each chunk of [`NORMAL_BATCH`] samples first draws its uniforms in
    /// per-sample order (real part's `u₁, u₂`, then the imaginary part's),
    /// then runs the `ln` and `cos` kernels as separate passes over stack
    /// arrays: no heap scratch, and the passes vectorise. Runs the AVX2
    /// twin when the CPU has AVX2 (DESIGN.md §8, *Twin kernels*).
    #[hot_path]
    pub fn complex_normals_into(&mut self, out: &mut [Complex64]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, the twin's only requirement.
            return unsafe { complex_normals_avx2(self, out) };
        }
        complex_normals_baseline(self, out);
    }

    /// Complex AWGN sample with total noise power `pow` (`E[|z|²] = pow`).
    pub fn awgn(&mut self, pow: f64) -> Complex64 {
        self.complex_normal().scale(pow.sqrt())
    }

    /// Uniform phase in `[0, 2π)` as a unit phasor.
    pub fn random_phasor(&mut self) -> Complex64 {
        Complex64::cis(self.uniform_in(0.0, 2.0 * PI))
    }
}

/// [`Rng64::complex_normals_into`] compiled for the baseline target.
fn complex_normals_baseline(rng: &mut Rng64, out: &mut [Complex64]) {
    complex_normals_body(rng, out);
}

/// [`Rng64::complex_normals_into`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn complex_normals_avx2(rng: &mut Rng64, out: &mut [Complex64]) {
    complex_normals_body(rng, out);
}

/// The passes of [`Rng64::complex_normals_into`], chunk by chunk.
#[inline(always)]
fn complex_normals_body(rng: &mut Rng64, out: &mut [Complex64]) {
    let mut radius = [0.0; 2 * NORMAL_BATCH];
    let mut turn = [0.0; 2 * NORMAL_BATCH];
    for chunk in out.chunks_mut(NORMAL_BATCH) {
        let n = 2 * chunk.len();
        debug_assert!(n <= radius.len() && n <= turn.len());
        let (radius, turn) = (&mut radius[..n], &mut turn[..n]);
        // Even slots are real parts, odd slots imaginary parts.
        for (r, t) in radius.iter_mut().zip(turn.iter_mut()) {
            *r = rng.radius_uniform();
            *t = rng.uniform();
        }
        for r in radius.iter_mut() {
            *r = (-2.0 * ln(*r)).sqrt();
        }
        for t in turn.iter_mut() {
            *t = cos_turn(*t);
        }
        let pairs = radius.chunks_exact(2).zip(turn.chunks_exact(2));
        for (z, (r, t)) in chunk.iter_mut().zip(pairs) {
            debug_assert!(r.len() == 2 && t.len() == 2);
            *z = c64(r[0] * t[0] * FRAC_1_SQRT_2, r[1] * t[1] * FRAC_1_SQRT_2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_normals_twins_agree_bit_for_bit() {
        #[cfg(target_arch = "x86_64")]
        {
            if !std::arch::is_x86_feature_detected!("avx2") {
                eprintln!("skipped: this CPU has no AVX2, so there is no twin to compare");
                return;
            }
            // The output buffers start from seeded entries with ±0,
            // subnormals and large magnitudes: the twins overwrite every
            // one, and leave the generators in the same state.
            let special = [0.0, -0.0, 4.9e-324, -2.2e-310, 1e150, -3e149];
            let mut fill = Rng64::seed(14);
            for (k, n) in [0usize, 1, 63, 64, 65, 264].into_iter().enumerate() {
                let start: Vec<Complex64> = (0..n)
                    .map(|_| {
                        c64(
                            special[fill.index(special.len())],
                            special[fill.index(special.len())],
                        )
                    })
                    .collect();
                let (mut base, mut avx2) = (start.clone(), start);
                let (mut rng_base, mut rng_avx2) =
                    (Rng64::seed(40 + k as u64), Rng64::seed(40 + k as u64));
                complex_normals_baseline(&mut rng_base, &mut base);
                // SAFETY: the CPU supports AVX2 (checked above).
                unsafe { complex_normals_avx2(&mut rng_avx2, &mut avx2) };
                let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
                    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
                };
                assert_eq!(bits(&base), bits(&avx2), "len {n}");
                assert_eq!(rng_base.s, rng_avx2.s, "len {n}");
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng64::seed(123);
        let mut b = Rng64::seed(123);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::seed(1);
        let mut b = Rng64::seed(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng64::seed(7);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = rng.normal();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn complex_normal_unit_power() {
        let mut rng = Rng64::seed(8);
        let n = 100_000;
        let p: f64 = (0..n).map(|_| rng.complex_normal().norm_sqr()).sum::<f64>() / n as f64;
        assert!((p - 1.0).abs() < 0.03, "power {p}");
    }

    #[test]
    fn awgn_power_scales() {
        let mut rng = Rng64::seed(9);
        let n = 50_000;
        let p: f64 = (0..n).map(|_| rng.awgn(4.0).norm_sqr()).sum::<f64>() / n as f64;
        assert!((p - 4.0).abs() < 0.2, "power {p}");
    }

    #[test]
    fn uniform_in_bounds() {
        let mut rng = Rng64::seed(10);
        for _ in 0..1000 {
            let x = rng.uniform_in(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }

    #[test]
    fn index_in_bounds_and_covers() {
        let mut rng = Rng64::seed(13);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let i = rng.index(8);
            assert!(i < 8);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng64::seed(11);
        assert!((0..100).all(|_| !rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0 + 1e-12)));
    }

    /// Seeded draws for the kernel oracles.
    const ORACLE_DRAWS: usize = 1_000_000;

    /// A generator whose first raw output is 0, so its first uniform is
    /// the one value the radius draw rejects.
    fn rejecting() -> Rng64 {
        let rng = Rng64 {
            s: [0, 0x1234, 0x5678, 0],
        };
        assert_eq!(rng.clone().uniform(), 0.0);
        rng
    }

    #[test]
    fn batch_matches_per_sample_draws_bitwise() {
        let lens = [
            0,
            1,
            NORMAL_BATCH - 1,
            NORMAL_BATCH,
            NORMAL_BATCH + 1,
            264,
            792,
        ];
        let starts = [Rng64::seed(21), Rng64::seed(22), rejecting()];
        for start in starts {
            for n in lens {
                let mut scalar = start.clone();
                let mut batch = start.clone();
                let want: Vec<Complex64> = (0..n).map(|_| scalar.complex_normal()).collect();
                let mut got = vec![Complex64::ZERO; n];
                batch.complex_normals_into(&mut got);
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.re.to_bits(), w.re.to_bits(), "len {n}, sample {k} re");
                    assert_eq!(g.im.to_bits(), w.im.to_bits(), "len {n}, sample {k} im");
                }
                // Same uniforms consumed: the two streams continue alike.
                assert_eq!(batch.s, scalar.s, "len {n}: generator state");
            }
        }
    }

    #[test]
    fn radius_draw_rejects_zero() {
        let mut a = rejecting();
        let mut b = rejecting();
        let x = a.normal();
        // The rejected 0 costs one extra uniform before u₁ and u₂.
        b.uniform();
        let (u1, u2) = (b.uniform(), b.uniform());
        assert!(u1 > 0.0);
        assert_eq!(a.s, b.s);
        assert_eq!(x.to_bits(), box_muller(u1, u2).to_bits());
    }

    #[test]
    #[cfg_attr(miri, ignore = "the oracle is the platform libm, which miri emulates")]
    fn normal_stays_within_1e_14_of_the_libm_formula() {
        let mut rng = Rng64::seed(33);
        let edges = [(2f64.powi(-53), 0.0), (2f64.powi(-53), 0.5)];
        let draws = (0..ORACLE_DRAWS).map(|_| (rng.radius_uniform(), rng.uniform()));
        for (u1, u2) in edges.into_iter().chain(draws) {
            let libm = (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos();
            let got = box_muller(u1, u2);
            assert!(
                (got - libm).abs() <= 1e-14,
                "u1 {u1:e}, u2 {u2:e}: {got:e} vs libm {libm:e}"
            );
        }
    }

    #[test]
    fn random_phasor_unit_magnitude() {
        let mut rng = Rng64::seed(12);
        for _ in 0..100 {
            assert!((rng.random_phasor().abs() - 1.0).abs() < 1e-12);
        }
    }
}
