//! Branch-free elementary-function kernels.
//!
//! The per-slot numerics that used to call the platform libm — the
//! Box–Muller noise of [`crate::rng`], the Rapp PA of
//! [`crate::nonlinearity`] and the gain drift of the fault layer — run on
//! these in-crate kernels instead:
//!
//! - `ln` of a positive normal double: fdlibm's `__ieee754_log`
//!   reduction into `[√2/2, √2)` (an integer add on the exponent word, so
//!   the renormalisation needs no branch) and its degree-14 polynomial;
//! - [`exp`]: fdlibm's `__ieee754_exp` reduction `x = k·ln2 + r`,
//!   `|r| ≤ ln2/2` (`k` rounded by a magic-number add) and its degree-10
//!   rational form, scaled by `2^k` as two exact power-of-two factors, so
//!   overflow, subnormal results and underflow need no branch;
//! - `cos_turn` and `sin_cos_turn`, `cos(2π·u)` and `sin(2π·u)` of a
//!   turn fraction `u`: `4u` and `r = 4u − round(4u)` are exact, so the
//!   quadrant split is exact; the angle `r·π/2` is formed as a
//!   double-double and fed to fdlibm's `__kernel_sin`/`__kernel_cos` on
//!   `[−π/4, π/4]`, and the quadrant picks and signs the pair by bit masks.
//!
//! Each is within about one ulp of the correctly rounded result (the unit
//! tests hold them to that against libm or a double-double reference),
//! and none branches on its input, so callers evaluate them in separate
//! vectorisable passes over stack batches of [`BATCH`] elements. A
//! batched pass and a per-element call of the same kernel agree bit for
//! bit.

/// Elements per pass of the batched kernel loops: callers size their
/// stack scratch with it.
pub const BATCH: usize = 64;

// fdlibm e_log.c / e_exp.c constants (bit patterns in the comments).
const LN2_HI: f64 = 0.6931471803691238; // 0x3fe62e42_fee00000
const LN2_LO: f64 = 1.9082149292705877e-10; // 0x3dea39ef_35793c76
const LG1: f64 = 0.6666666666666735; // 0x3fe55555_55555593
const LG2: f64 = 0.3999999999940942; // 0x3fd99999_9997fa04
const LG3: f64 = 0.2857142874366239; // 0x3fd24924_94229359
const LG4: f64 = 0.22222198432149784; // 0x3fcc71c5_1d8e78af
const LG5: f64 = 0.1818357216161805; // 0x3fc74664_96cb03de
const LG6: f64 = 0.15313837699209373; // 0x3fc39a09_d078c69f
const LG7: f64 = 0.14798198605116586; // 0x3fc2f112_df3e5244
const INV_LN2: f64 = std::f64::consts::LOG2_E; // 0x3ff71547_652b82fe
const P1: f64 = 0.16666666666666602; // 0x3fc55555_5555553e
const P2: f64 = -0.0027777777777015593; // 0xbf66c16c_16bebd93
const P3: f64 = 6.613756321437934e-05; // 0x3f11566a_af25de2c
const P4: f64 = -1.6533902205465252e-06; // 0xbebbbd41_c5d26bf1
const P5: f64 = 4.1381367970572385e-08; // 0x3e663769_72bea4d0

/// `2⁵² + 1023`: subtracting it from `2⁵² | e` turns a biased exponent
/// `e` into the unbiased one, exactly and without an int → float convert.
const EXP_BIAS_MAGIC: f64 = 4503599627370496.0 + 1023.0;

/// `1.5·2⁵²`: adding it rounds a value of magnitude below `2⁵¹` to the
/// nearest integer (ties to even), which then sits in the low mantissa
/// bits as a two's-complement integer.
const ROUND_MAGIC: f64 = 6755399441055744.0;

/// [`exp`] clamps its argument to `[EXP_MIN_ARG, EXP_MAX_ARG]`: below,
/// the result rounds to `0`; above, it overflows to `+∞`. The clamp keeps
/// `k = round(x/ln2)` in `[−1076, 1024]`, where `2^round(k/2)` and the
/// remaining factor are both normal doubles.
const EXP_MIN_ARG: f64 = -746.0;
const EXP_MAX_ARG: f64 = 710.0;

/// Natural log of a positive normal double (fdlibm `__ieee754_log`, no
/// special cases). An integer add on the high word carries mantissas at
/// or above `√2` into the exponent, so `x = 2^k · (1 + f)` with
/// `1 + f ∈ [√2/2, √2)`, then `ln x = k·ln2 + ln(1 + f)` with
/// `ln(1 + f) = f − f²/2 + s·(f²/2 + R(s²))`, `s = f/(2 + f)`.
#[inline(always)]
pub(crate) fn ln(x: f64) -> f64 {
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

/// `e^x` (fdlibm `__ieee754_exp`, without its branches). `k = round(x/ln2)`
/// comes from a magic-number add, `r = x − k·ln2` is formed as `hi − lo`
/// with the exact `k·ln2_hi`, and `e^r = 1 + r + r·c/(2 − c)` with
/// `c = r − r²·P(r²)`. The result `y·2^k` is `y·2^k₁·2^(k−k₁)` with
/// `k₁ = round(k/2)`, both factors normal doubles: the
/// first product is exact and the second rounds once, so subnormal
/// results are correctly scaled, `x > ln(f64::MAX)` gives `+∞` and
/// `x < −745.2` gives `0`. `±0` gives exactly `1`; NaN stays NaN.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    // Comparison selects, so a NaN passes through the clamp.
    let x = if x < EXP_MIN_ARG { EXP_MIN_ARG } else { x };
    let x = if x > EXP_MAX_ARG { EXP_MAX_ARG } else { x };
    let shifted = x * INV_LN2 + ROUND_MAGIC;
    let kf = shifted - ROUND_MAGIC;
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let t = r * r;
    let c = r - t * (P1 + t * (P2 + t * (P3 + t * (P4 + t * P5))));
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    // 2^k = 2^k1 · 2^(k − k1), k1 = round(k/2): both rounding sums hold
    // their integer as two's complement in the low bits, so the exponent
    // fields come from 64-bit adds, subtracts and shifts alone.
    let k_bits = shifted.to_bits();
    let k1_bits = (kf * 0.5 + ROUND_MAGIC).to_bits();
    let scale1 = f64::from_bits(k1_bits.wrapping_add(1023) << 52);
    let scale2 = f64::from_bits(k_bits.wrapping_sub(k1_bits).wrapping_add(1023) << 52);
    y * scale1 * scale2
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

/// Veltkamp splitter `2²⁷ + 1`.
const SPLIT: f64 = 134217729.0;

/// The shared reduction of a turn fraction `u`: returns `(sin θ, cos θ,
/// q)` with `2π·u = q·π/2 + θ`, `θ ∈ [−π/4, π/4]`.
///
/// `4u` is exact, so `q = round(4u)` and `r = 4u − q ∈ [−½, ½]` are too:
/// the quadrant split loses nothing. The angle `θ = r·π/2` is a
/// double-double `θ_hi + θ_lo` (Dekker's exact product of `r` and the
/// double `π/2`, plus `r` times `π/2`'s tail), and fdlibm's kernels
/// evaluate `cos θ` and `sin θ` with the tail folded in. `q` comes back
/// as the bits of the rounding sum: only `q mod 4`, its low two bits, is
/// meaningful.
#[inline(always)]
fn quarter_turn(u: f64) -> (f64, f64, u64) {
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
    (sin, cos, q)
}

/// `cos(2π·u)` of a turn fraction `u` (any `|u| < 2⁴⁹` works; only the
/// fractional turn matters). Quadrants 1 and 3 take `sin θ`, quadrants 1
/// and 2 flip the sign.
#[inline(always)]
pub(crate) fn cos_turn(u: f64) -> f64 {
    let (sin, cos, q) = quarter_turn(u);
    let odd = 0u64.wrapping_sub(q & 1);
    let mag = (sin.to_bits() & odd) | (cos.to_bits() & !odd);
    let sign = ((q + 1) & 2) << 62;
    f64::from_bits(mag ^ sign)
}

/// `(sin(2π·u), cos(2π·u))` of a turn fraction `u` from one reduction
/// (any `|u| < 2⁴⁹`). The cosine is bitwise `cos_turn`'s; the sine
/// takes `cos θ` in quadrants 1 and 3 and flips its sign in quadrants 2
/// and 3.
#[inline(always)]
pub(crate) fn sin_cos_turn(u: f64) -> (f64, f64) {
    let (sin, cos, q) = quarter_turn(u);
    let odd = 0u64.wrapping_sub(q & 1);
    let (sin, cos) = (sin.to_bits(), cos.to_bits());
    let s = (cos & odd) | (sin & !odd);
    let c = (sin & odd) | (cos & !odd);
    (
        f64::from_bits(s ^ ((q & 2) << 62)),
        f64::from_bits(c ^ (((q + 1) & 2) << 62)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// Distance in ulps between two finite doubles of the same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
    }

    /// Seeded draws for the kernel oracles.
    const ORACLE_DRAWS: usize = 1_000_000;

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

    #[test]
    #[cfg_attr(miri, ignore = "the oracle is the platform libm, which miri emulates")]
    fn exp_kernel_within_one_ulp_of_libm() {
        let mut rng = Rng64::seed(34);
        let tiny = f64::from_bits(1);
        let mut edges = vec![
            0.0,
            -0.0,
            1e-300,
            -1e-300,
            f64::EPSILON,
            0.5 * std::f64::consts::LN_2,
            -0.5 * std::f64::consts::LN_2,
            1.0,
            -1.0,
            // Largest finite result, and the first that overflows.
            f64::MAX.ln(),
            // Smallest normal result, the subnormal range, the smallest
            // subnormal and the last argument that does not round to 0.
            f64::MIN_POSITIVE.ln(),
            -720.0,
            -740.0,
            tiny.ln(),
            -745.1,
        ];
        // Arguments at k = round(x/ln2) switches.
        for k in [-1074.5, -1022.5, -0.5, 0.5, 1.5, 1023.5] {
            let at = k * std::f64::consts::LN_2;
            let bits = at.to_bits();
            edges.extend([bits - 1, bits, bits + 1].map(f64::from_bits));
        }
        let draws = (0..ORACLE_DRAWS).map(|_| rng.uniform_in(-745.0, 709.0));
        for x in edges.into_iter().chain(draws) {
            let (got, want) = (exp(x), x.exp());
            assert!(ulps(got, want) <= 1, "exp({x:e}) = {got:e}, libm {want:e}");
        }
        assert_eq!(exp(0.0).to_bits(), 1f64.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1f64.to_bits());
        let subnormal = exp(-740.0);
        assert!(subnormal > 0.0 && subnormal < f64::MIN_POSITIVE);
        // Past the ends: +∞ and exactly 0, as libm.
        let first_overflow = f64::from_bits(f64::MAX.ln().to_bits() + 1);
        for x in [first_overflow, 710.0, 1e4, f64::MAX, f64::INFINITY] {
            assert_eq!(exp(x), f64::INFINITY, "exp({x:e})");
        }
        for x in [-745.2, -746.0, -1e4, f64::MIN, f64::NEG_INFINITY] {
            assert_eq!(exp(x).to_bits(), 0f64.to_bits(), "exp({x:e})");
        }
        assert!(exp(f64::NAN).is_nan());
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

    /// One ulp of `want` plus half an ulp of 1: the kernels' bound
    /// against the double-double reference.
    fn turn_tolerance(want: f64) -> f64 {
        f64::from_bits(want.abs().to_bits() + 1) - want.abs() + 2f64.powi(-54)
    }

    /// Turn fractions at the quadrant and octant switches.
    fn turn_edges() -> Vec<f64> {
        let eps = 2f64.powi(-53);
        let mut edges = vec![0.0, 1.0 - eps, 0.25, 0.5, 0.75];
        // Octant boundaries are where round(4u) switches quadrant.
        for k in [1.0, 3.0, 5.0, 7.0] {
            let at = k / 8.0;
            edges.extend([at - eps, at, at + eps]);
        }
        edges
    }

    #[test]
    #[cfg_attr(miri, ignore = "the oracle is the platform libm, which miri emulates")]
    fn cos_turn_kernel_matches_double_double_reference() {
        let mut rng = Rng64::seed(32);
        let draws = (0..ORACLE_DRAWS).map(|_| rng.uniform());
        for u in turn_edges().into_iter().chain(draws) {
            let (hi, lo) = two_pi_turn(u);
            let want = hi.cos() - hi.sin() * lo;
            let got = cos_turn(u);
            assert!(
                (got - want).abs() <= turn_tolerance(want),
                "cos(2π·{u:e}) = {got:e}, reference {want:e}"
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "the oracle is the platform libm, which miri emulates")]
    fn sin_cos_turn_matches_double_double_reference() {
        let mut rng = Rng64::seed(35);
        let negated: Vec<f64> = turn_edges().iter().map(|u| -u).collect();
        let draws = (0..ORACLE_DRAWS).map(|_| rng.uniform_in(-1.0, 1.0));
        for u in turn_edges().into_iter().chain(negated).chain(draws) {
            let (hi, lo) = two_pi_turn(u);
            let (s, c) = hi.sin_cos();
            let (want_sin, want_cos) = (s + c * lo, c - s * lo);
            let (got_sin, got_cos) = sin_cos_turn(u);
            assert!(
                (got_sin - want_sin).abs() <= turn_tolerance(want_sin),
                "sin(2π·{u:e}) = {got_sin:e}, reference {want_sin:e}"
            );
            assert!(
                (got_cos - want_cos).abs() <= turn_tolerance(want_cos),
                "cos(2π·{u:e}) = {got_cos:e}, reference {want_cos:e}"
            );
            assert_eq!(got_cos.to_bits(), cos_turn(u).to_bits(), "u {u:e}");
        }
    }
}
