//! Fast Fourier transforms.
//!
//! Provides an in-place radix-2 Cooley–Tukey FFT for power-of-two lengths and
//! a Bluestein chirp-z fallback for arbitrary lengths, plus a naive reference
//! DFT used in tests. Conventions:
//!
//! - Forward transform: `X[k] = Σ_n x[n]·e^{-j2πkn/N}` (no scaling).
//! - Inverse transform: `x[n] = (1/N)·Σ_k X[k]·e^{+j2πkn/N}`.
//!
//! The OFDM PHY uses power-of-two grids (512–4096), so the radix-2 path is
//! the hot one; Bluestein exists so channel-analysis code can transform
//! arbitrary-length CIR windows without padding artifacts.

use crate::complex::Complex64;
use std::f64::consts::PI;

/// Direction of the transform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Direction {
    Forward,
    Inverse,
}

/// In-place radix-2 FFT. Panics if `x.len()` is not a power of two.
pub fn fft_in_place(x: &mut [Complex64]) {
    radix2(x, Direction::Forward);
}

/// In-place radix-2 inverse FFT (includes the `1/N` scaling).
/// Panics if `x.len()` is not a power of two.
pub fn ifft_in_place(x: &mut [Complex64]) {
    radix2(x, Direction::Inverse);
    let scale = 1.0 / x.len() as f64;
    for v in x.iter_mut() {
        *v = v.scale(scale);
    }
}

/// Out-of-place FFT of arbitrary length (radix-2 when possible, Bluestein
/// otherwise).
pub fn fft(x: &[Complex64]) -> Vec<Complex64> {
    let mut out = Vec::new();
    transform_into(x, Direction::Forward, &mut out, &mut FftScratch::default());
    out
}

/// Out-of-place inverse FFT of arbitrary length (includes `1/N` scaling).
pub fn ifft(x: &[Complex64]) -> Vec<Complex64> {
    let mut out = Vec::new();
    ifft_into(x, &mut out, &mut FftScratch::default());
    out
}

/// Reusable state for the out-of-place transforms: the Bluestein chirp and
/// the transform of its conjugate (both depend only on the length and the
/// direction, so they are kept across calls of the same shape) plus the
/// convolution workspace. A transform through a warmed scratch allocates
/// nothing and is bit-identical to [`fft`]/[`ifft`].
#[derive(Clone, Debug, Default)]
pub struct FftScratch {
    /// Length and direction the cached chirp tables belong to.
    key: Option<(usize, Direction)>,
    chirp: Vec<Complex64>,
    chirp_hat: Vec<Complex64>,
    work: Vec<Complex64>,
}

/// [`ifft`] into a caller-owned buffer, reusing `scratch` across calls.
pub fn ifft_into(x: &[Complex64], out: &mut Vec<Complex64>, scratch: &mut FftScratch) {
    transform_into(x, Direction::Inverse, out, scratch);
    let scale = 1.0 / x.len() as f64;
    for v in out.iter_mut() {
        *v = v.scale(scale);
    }
}

/// Reference DFT in O(N²) — used by tests as ground truth and by callers
/// that need a handful of output bins only.
pub fn dft_naive(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex64::ZERO;
            for (i, &v) in x.iter().enumerate() {
                let theta = -2.0 * PI * (k * i) as f64 / n as f64;
                acc += v * Complex64::cis(theta);
            }
            acc
        })
        .collect()
}

/// Circularly shifts `x` left by `k` positions (i.e. `out[i] = x[(i+k) % n]`).
pub fn circular_shift_left<T: Copy>(x: &[T], k: usize) -> Vec<T> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let k = k % n;
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&x[k..]);
    out.extend_from_slice(&x[..k]);
    out
}

/// `fftshift`: moves the zero-frequency bin to the center.
pub fn fftshift<T: Copy>(x: &[T]) -> Vec<T> {
    circular_shift_left(x, x.len().div_ceil(2))
}

fn transform_into(
    x: &[Complex64],
    dir: Direction,
    out: &mut Vec<Complex64>,
    scratch: &mut FftScratch,
) {
    out.clear();
    if x.len().is_power_of_two() {
        out.extend_from_slice(x);
        radix2(out, dir);
    } else {
        bluestein_into(x, dir, out, scratch);
    }
}

// xtask-allow(hot-path-panic): butterfly indices satisfy i + len/2 < n by the loop structure (len ≤ n, i = k + j·len < n with k < len/2); the power-of-two assert at entry is the only runtime check
fn radix2(x: &mut [Complex64], dir: Direction) {
    let n = x.len();
    assert!(
        n.is_power_of_two(),
        "radix-2 FFT requires power-of-two length, got {n}"
    );
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            x.swap(i, j);
        }
    }
    // Iterative butterflies.
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Complex64::cis(ang);
        let half = len / 2;
        // Twiddle `w_k = wlen^k` is the same in every block of a stage:
        // step it once per `k` (the same product sequence each block
        // would compute) and apply it across the blocks. Butterflies of
        // one stage touch disjoint pairs, so the order is free.
        let mut w = Complex64::ONE;
        for k in 0..half {
            let mut i = k;
            while i < n {
                let u = x[i];
                let v = x[i + half] * w;
                x[i] = u + v;
                x[i + half] = u - v;
                i += len;
            }
            w *= wlen;
        }
        len <<= 1;
    }
}

/// Bluestein's algorithm: expresses a length-N DFT as a convolution, carried
/// out with a power-of-two FFT of length ≥ 2N−1. Appends the N outputs to
/// `out`.
// xtask-allow(hot-path-panic): all indices are bounded by n = x.len() and m ≥ 2n−1 by construction (k < n ≤ m, m − k > 0)
fn bluestein_into(x: &[Complex64], dir: Direction, out: &mut Vec<Complex64>, s: &mut FftScratch) {
    let n = x.len();
    if n == 0 {
        return;
    }
    let m = (2 * n - 1).next_power_of_two();
    if s.key != Some((n, dir)) {
        let sign = match dir {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        };
        // Chirp: w[k] = e^{sign·jπk²/n}
        s.chirp.clear();
        s.chirp.extend((0..n).map(|k| {
            // k² mod 2n to keep the angle argument small and precise.
            let k2 = (k as u128 * k as u128) % (2 * n as u128);
            Complex64::cis(sign * PI * k2 as f64 / n as f64)
        }));
        let b = &mut s.chirp_hat;
        b.clear();
        b.resize(m, Complex64::ZERO);
        for (bk, c) in b.iter_mut().zip(&s.chirp) {
            *bk = c.conj();
        }
        // b[m − k] = conj(chirp[k]) for k = 1..n.
        for (bk, c) in b.iter_mut().rev().zip(&s.chirp[1..]) {
            *bk = c.conj();
        }
        radix2(b, Direction::Forward);
        s.key = Some((n, dir));
    }
    let a = &mut s.work;
    a.clear();
    a.resize(m, Complex64::ZERO);
    for ((ak, &xk), &ck) in a.iter_mut().zip(x).zip(&s.chirp) {
        *ak = xk * ck;
    }
    radix2(a, Direction::Forward);
    for (v, &b) in a.iter_mut().zip(&s.chirp_hat) {
        *v *= b;
    }
    radix2(a, Direction::Inverse);
    let scale = 1.0 / m as f64;
    out.extend(a.iter().zip(&s.chirp).map(|(&v, &w)| v.scale(scale) * w));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn assert_vec_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).abs() < tol,
                "mismatch at {i}: {x} vs {y} (tol {tol})"
            );
        }
    }

    #[test]
    fn impulse_transforms_to_flat() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        fft_in_place(&mut x);
        for v in &x {
            assert!((*v - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * PI * (k0 * i) as f64 / n as f64))
            .collect();
        let y = fft(&x);
        for (k, v) in y.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage at bin {k}: {}", v.abs());
            }
        }
    }

    #[test]
    fn fft_matches_naive_dft_pow2() {
        let mut rng = Rng64::seed(7);
        let x: Vec<Complex64> = (0..32).map(|_| rng.complex_normal()).collect();
        let fast = fft(&x);
        let slow = dft_naive(&x);
        assert_vec_close(&fast, &slow, 1e-9);
    }

    #[test]
    fn bluestein_matches_naive_dft_non_pow2() {
        for n in [3usize, 5, 12, 17, 100, 33] {
            let mut rng = Rng64::seed(n as u64);
            let x: Vec<Complex64> = (0..n).map(|_| rng.complex_normal()).collect();
            let fast = fft(&x);
            let slow = dft_naive(&x);
            assert_vec_close(&fast, &slow, 1e-8);
        }
    }

    #[test]
    fn round_trip_pow2() {
        let mut rng = Rng64::seed(42);
        let x: Vec<Complex64> = (0..128).map(|_| rng.complex_normal()).collect();
        let y = ifft(&fft(&x));
        assert_vec_close(&x, &y, 1e-10);
    }

    #[test]
    fn round_trip_non_pow2() {
        let mut rng = Rng64::seed(43);
        let x: Vec<Complex64> = (0..37).map(|_| rng.complex_normal()).collect();
        let y = ifft(&fft(&x));
        assert_vec_close(&x, &y, 1e-8);
    }

    #[test]
    fn parseval_energy_conserved() {
        let mut rng = Rng64::seed(9);
        let x: Vec<Complex64> = (0..256).map(|_| rng.complex_normal()).collect();
        let y = fft(&x);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((ex - ey).abs() / ex < 1e-10);
    }

    #[test]
    fn linearity() {
        let mut rng = Rng64::seed(11);
        let a: Vec<Complex64> = (0..64).map(|_| rng.complex_normal()).collect();
        let b: Vec<Complex64> = (0..64).map(|_| rng.complex_normal()).collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        let expect: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert_vec_close(&fsum, &expect, 1e-9);
    }

    #[test]
    fn shift_helpers() {
        let v = [1, 2, 3, 4, 5];
        assert_eq!(circular_shift_left(&v, 2), vec![3, 4, 5, 1, 2]);
        assert_eq!(fftshift(&v), vec![4, 5, 1, 2, 3]);
        let e: [i32; 0] = [];
        assert!(circular_shift_left(&e, 3).is_empty());
    }

    #[test]
    fn radix2_matches_per_block_twiddle_recurrence_bitwise() {
        // The textbook loop order restarts the twiddle recurrence in every
        // block; hoisting it out of the blocks must not change a bit.
        fn per_block(x: &mut [Complex64]) {
            let n = x.len();
            let bits = n.trailing_zeros();
            for i in 0..n {
                let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
                if j > i {
                    x.swap(i, j);
                }
            }
            let mut len = 2;
            while len <= n {
                let wlen = Complex64::cis(-2.0 * PI / len as f64);
                for i in (0..n).step_by(len) {
                    let mut w = Complex64::ONE;
                    for k in 0..len / 2 {
                        let u = x[i + k];
                        let v = x[i + k + len / 2] * w;
                        x[i + k] = u + v;
                        x[i + k + len / 2] = u - v;
                        w *= wlen;
                    }
                }
                len <<= 1;
            }
        }
        let mut rng = Rng64::seed(11);
        for n in [2usize, 8, 64, 1024] {
            let x: Vec<Complex64> = (0..n).map(|_| rng.complex_normal()).collect();
            let (mut a, mut b) = (x.clone(), x);
            fft_in_place(&mut a);
            per_block(&mut b);
            let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
                v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
            };
            assert_eq!(bits(&a), bits(&b), "n = {n}");
        }
    }

    #[test]
    fn ifft_into_with_reused_scratch_is_bit_identical() {
        // Alternating lengths re-key the cached chirp tables; every call
        // must still reproduce the one-shot transform bit for bit.
        let mut rng = Rng64::seed(10);
        let mut scratch = FftScratch::default();
        let mut out = Vec::new();
        for n in [264usize, 264, 37, 64, 264, 0] {
            let x: Vec<Complex64> = (0..n).map(|_| rng.complex_normal()).collect();
            ifft_into(&x, &mut out, &mut scratch);
            let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
                v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
            };
            assert_eq!(bits(&out), bits(&ifft(&x)), "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn in_place_rejects_non_pow2() {
        let mut x = vec![Complex64::ZERO; 12];
        fft_in_place(&mut x);
    }
}
