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
//! two in-crate, branch-free kernels instead of the platform libm:
//!
//! - `ln` of a positive normal double: fdlibm's `__ieee754_log`
//!   reduction into `[√2/2, √2)` (an integer add on the exponent word, so
//!   the renormalisation needs no branch) and its degree-14 polynomial;
//! - `cos_turn`, `cos(2π·u)` of a turn fraction `u ∈ [0, 1)`: `4u` and
//!   `r = 4u − round(4u)` are exact, so the quadrant split is exact; the
//!   angle `r·π/2` is formed as a double-double and fed to fdlibm's
//!   `__kernel_sin`/`__kernel_cos` on `[−π/4, π/4]`.
//!
//! Both are within about one ulp of the correctly rounded result (the unit
//! tests hold them to that against libm), and neither branches on its
//! input, so [`Rng64::complex_normals_into`] can evaluate them in separate
//! vectorisable passes over a batch. The scalar [`Rng64::normal`] runs the
//! same kernels, so the batch is bitwise equal to per-sample draws.

use crate::complex::{c64, Complex64};
use mmwave_hotpath::hot_path;
use std::f64::consts::{FRAC_1_SQRT_2, PI};

/// Complex normals per pass of [`Rng64::complex_normals_into`]: its stack
/// scratch holds the uniforms of this many samples. Callers that scale the
/// batch on the fly size their own stack buffers with it.
pub const NORMAL_BATCH: usize = 64;

// fdlibm e_log.c constants (bit patterns in the comments).
const LN2_HI: f64 = 0.6931471803691238; // 0x3fe62e42_fee00000
const LN2_LO: f64 = 1.9082149292705877e-10; // 0x3dea39ef_35793c76
const LG1: f64 = 0.6666666666666735; // 0x3fe55555_55555593
const LG2: f64 = 0.3999999999940942; // 0x3fd99999_9997fa04
const LG3: f64 = 0.2857142874366239; // 0x3fd24924_94229359
const LG4: f64 = 0.22222198432149784; // 0x3fcc71c5_1d8e78af
const LG5: f64 = 0.1818357216161805; // 0x3fc74664_96cb03de
const LG6: f64 = 0.15313837699209373; // 0x3fc39a09_d078c69f
const LG7: f64 = 0.14798198605116586; // 0x3fc2f112_df3e5244

/// `2⁵² + 1023`: subtracting it from `2⁵² | e` turns a biased exponent
/// `e` into the unbiased one, exactly and without an int → float convert.
const EXP_BIAS_MAGIC: f64 = 4503599627370496.0 + 1023.0;

/// Natural log of a positive normal double (fdlibm `__ieee754_log`, no
/// special cases). An integer add on the high word carries mantissas at
/// or above `√2` into the exponent, so `x = 2^k · (1 + f)` with
/// `1 + f ∈ [√2/2, √2)`, then `ln x = k·ln2 + ln(1 + f)` with
/// `ln(1 + f) = f − f²/2 + s·(f²/2 + R(s²))`, `s = f/(2 + f)`.
#[inline(always)]
fn ln(x: f64) -> f64 {
    let bits = x.to_bits();
    let hx = (bits >> 32) + (0x3ff0_0000 - 0x3fe6_a09e);
    let biased_k = hx >> 20;
    let m_hi = (hx & 0x000f_ffff) + 0x3fe6_a09e;
    let m = f64::from_bits((m_hi << 32) | (bits & 0xffff_ffff));
    let dk = f64::from_bits(0x4330_0000_0000_0000 | biased_k) - EXP_BIAS_MAGIC;
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    s * (hfsq + r) + dk * LN2_LO - hfsq + f + dk * LN2_HI
}

// fdlibm k_cos.c / k_sin.c constants.
const C1: f64 = 0.0416666666666666; // 0x3fa55555_5555554c
const C2: f64 = -0.001388888888887411; // 0xbf56c16c_16c15177
const C3: f64 = 2.480158728947673e-05; // 0x3efa01a0_19cb1590
const C4: f64 = -2.7557314351390663e-07; // 0xbe927e4f_809c52ad
const C5: f64 = 2.087572321298175e-09; // 0x3e21ee9e_bdb4b1c4
const C6: f64 = -1.1359647557788195e-11; // 0xbda8fae9_be8838d4
const S1: f64 = -0.16666666666666632; // 0xbfc55555_55555549
const S2: f64 = 0.00833333333332249; // 0x3f811111_1110f8a6
const S3: f64 = -0.0001984126982985795; // 0xbf2a01a0_19c161d5
const S4: f64 = 2.7557313707070068e-06; // 0x3ec71de3_57b1fe7d
const S5: f64 = -2.5050760253406863e-08; // 0xbe5ae5e6_8a2b9ceb
const S6: f64 = 1.58969099521155e-10; // 0x3de5d93a_5acfd57c

/// `π/2` as the double `PIO2` plus its tail; `PIO2 = PIO2_A + PIO2_B`
/// splits it into 26 + 27 significant bits for Dekker's exact product.
const PIO2: f64 = std::f64::consts::FRAC_PI_2; // 0x3ff921fb_54442d18
const PIO2_TAIL: f64 = 6.123233995736766e-17; // 0x3c91a626_33145c07
const PIO2_A: f64 = 1.5707963109016418; // 0x3ff921fb_50000000
const PIO2_B: f64 = 1.5893254712295857e-08; // 0x3e5110b4_60000000

/// `1.5·2⁵²`: adding it rounds a value in `[0, 2⁵¹)` to the nearest
/// integer (ties to even), which then sits in the low mantissa bits.
const ROUND_MAGIC: f64 = 6755399441055744.0;
/// Veltkamp splitter `2²⁷ + 1`.
const SPLIT: f64 = 134217729.0;

/// `cos(2π·u)` of a turn fraction `u ∈ [0, 1)` (any `u` in `[0, 2⁴⁹)`
/// works; only the fractional turn matters).
///
/// `4u` is exact, so `q = round(4u)` and `r = 4u − q ∈ [−½, ½]` are too:
/// the quadrant split loses nothing. The angle `θ = r·π/2 ∈ [−π/4, π/4]`
/// is a double-double `θ_hi + θ_lo` (Dekker's exact product of `r` and
/// the double `π/2`, plus `r` times `π/2`'s tail), and fdlibm's kernels
/// evaluate `cos θ` and `sin θ` with the tail folded in. The quadrant
/// `q mod 4` picks `cos θ`, `−sin θ`, `−cos θ` or `sin θ` by bit masks.
#[inline(always)]
fn cos_turn(u: f64) -> f64 {
    let t = 4.0 * u;
    let shifted = t + ROUND_MAGIC;
    let q = shifted.to_bits();
    let r = t - (shifted - ROUND_MAGIC);
    // θ = r·π/2 as θ_hi + θ_lo.
    let x = r * PIO2;
    let c = SPLIT * r;
    let r_hi = c - (c - r);
    let r_lo = r - r_hi;
    let err = ((r_hi * PIO2_A - x) + r_hi * PIO2_B + r_lo * PIO2_A) + r_lo * PIO2_B;
    let y = err + r * PIO2_TAIL;
    // fdlibm __kernel_cos(x, y) and __kernel_sin(x, y, 1).
    let z = x * x;
    let w = z * z;
    let rc = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let wc = 1.0 - hz;
    let cos = wc + (((1.0 - wc) - hz) + (z * rc - x * y));
    let rs = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let v = z * x;
    let sin = x - ((z * (0.5 * y - v * rs) - y) - v * S1);
    // Quadrants 1 and 3 take sin, 1 and 2 flip the sign.
    let odd = 0u64.wrapping_sub(q & 1);
    let mag = (sin.to_bits() & odd) | (cos.to_bits() & !odd);
    let sign = ((q + 1) & 2) << 62;
    f64::from_bits(mag ^ sign)
}

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

    /// Derives an independent child generator; useful for giving each
    /// experiment run or each subsystem its own stream.
    pub fn fork(&mut self, salt: u64) -> Self {
        let s: u64 = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self::seed(s)
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
    fn radius_uniform(&mut self) -> f64 {
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
    /// arrays: no heap scratch, and the passes vectorise.
    #[hot_path]
    pub fn complex_normals_into(&mut self, out: &mut [Complex64]) {
        let mut radius = [0.0; 2 * NORMAL_BATCH];
        let mut turn = [0.0; 2 * NORMAL_BATCH];
        for chunk in out.chunks_mut(NORMAL_BATCH) {
            let n = 2 * chunk.len();
            debug_assert!(n <= radius.len() && n <= turn.len());
            let (radius, turn) = (&mut radius[..n], &mut turn[..n]);
            // Even slots are real parts, odd slots imaginary parts.
            for (r, t) in radius.iter_mut().zip(turn.iter_mut()) {
                *r = self.radius_uniform();
                *t = self.uniform();
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

    /// Complex AWGN sample with total noise power `pow` (`E[|z|²] = pow`).
    pub fn awgn(&mut self, pow: f64) -> Complex64 {
        self.complex_normal().scale(pow.sqrt())
    }

    /// Uniform phase in `[0, 2π)` as a unit phasor.
    pub fn random_phasor(&mut self) -> Complex64 {
        Complex64::cis(self.uniform_in(0.0, 2.0 * PI))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn fork_streams_independent() {
        let mut root = Rng64::seed(5);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    /// Distance in ulps between two finite doubles of the same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
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
    fn ln_kernel_within_one_ulp_of_libm() {
        let mut rng = Rng64::seed(31);
        // The reduction's switch sits at mantissa 0x6a09e (√2): check
        // both sides of it in a few binades, plus the range ends.
        let mut edges = vec![2f64.powi(-53), 1.0 - 2f64.powi(-53), 0.5, 0.75];
        for e in [0x3fe0_0000u64, 0x3fd0_0000, 0x3f00_0000, 0x3ca0_0000] {
            let at = ((e | 0x6_a09e) << 32) as i64;
            for d in -2..=2i64 {
                edges.push(f64::from_bits((at + d) as u64));
            }
        }
        let draws = (0..ORACLE_DRAWS).map(|_| rng.radius_uniform());
        for x in edges.into_iter().chain(draws) {
            let (got, want) = (ln(x), x.ln());
            assert!(ulps(got, want) <= 1, "ln({x:e}) = {got:e}, libm {want:e}");
        }
    }

    /// `2π·u` as a double-double `(hi, lo)`: Dekker's exact product of
    /// the double `2π` and `u`, plus `u` times `2π`'s tail.
    fn two_pi_turn(u: f64) -> (f64, f64) {
        let hi = std::f64::consts::TAU * u;
        let (a, b) = (4.0 * PIO2_A, 4.0 * PIO2_B);
        let c = SPLIT * u;
        let u_hi = c - (c - u);
        let u_lo = u - u_hi;
        let err = ((u_hi * a - hi) + u_hi * b + u_lo * a) + u_lo * b;
        (hi, err + u * 4.0 * PIO2_TAIL)
    }

    #[test]
    #[cfg_attr(miri, ignore = "the oracle is the platform libm, which miri emulates")]
    fn cos_turn_kernel_matches_double_double_reference() {
        let mut rng = Rng64::seed(32);
        let eps = 2f64.powi(-53);
        let mut edges = vec![0.0, 1.0 - eps, 0.25, 0.5, 0.75];
        // Octant boundaries are where round(4u) switches quadrant.
        for k in [1.0, 3.0, 5.0, 7.0] {
            let at = k / 8.0;
            edges.extend([at - eps, at, at + eps]);
        }
        let draws = (0..ORACLE_DRAWS).map(|_| rng.uniform());
        for u in edges.into_iter().chain(draws) {
            let (hi, lo) = two_pi_turn(u);
            let want = hi.cos() - hi.sin() * lo;
            let got = cos_turn(u);
            let ulp = f64::from_bits(want.abs().to_bits() + 1) - want.abs();
            let tol = ulp + 2f64.powi(-54);
            assert!(
                (got - want).abs() <= tol,
                "cos(2π·{u:e}) = {got:e}, reference {want:e}"
            );
        }
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
