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
//! arbitrary-length CIR windows without padding artifacts. Every transform
//! runs on split lanes (all real parts, then all imaginary parts) so its
//! butterflies run on packed arithmetic, through a plan (bit-reversal swaps
//! and stage twiddles) that [`FftScratch`] keeps across calls. The
//! butterflies run on an AVX2 twin where the CPU has AVX2 (DESIGN.md §8,
//! *Twin kernels*). Every butterfly and pointwise product runs
//! [`Complex64`]'s operations on the same operands in either layout and
//! either twin, so a transform's bits depend on neither.

use crate::complex::Complex64;
use crate::lanes;
use std::f64::consts::PI;

/// Direction of the transform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Direction {
    Forward,
    Inverse,
}

impl Direction {
    /// Sign of the exponent: `-1` forward, `+1` inverse.
    fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

/// In-place radix-2 FFT. Panics if `x.len()` is not a power of two.
pub fn fft_in_place(x: &mut [Complex64]) {
    radix2_in_place(x, Direction::Forward);
}

/// In-place radix-2 inverse FFT (includes the `1/N` scaling).
/// Panics if `x.len()` is not a power of two.
pub fn ifft_in_place(x: &mut [Complex64]) {
    radix2_in_place(x, Direction::Inverse);
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
/// direction, so they are kept across calls of the same shape), the
/// split-lane workspace, and the radix-2 plans of the transform length in
/// each direction. A transform through a warmed scratch allocates nothing
/// and is bit-identical to [`fft`]/[`ifft`].
#[derive(Clone, Debug, Default)]
pub struct FftScratch {
    /// Length and direction the cached chirp tables belong to.
    key: Option<(usize, Direction)>,
    chirp: SplitLanes,
    chirp_hat: SplitLanes,
    work: SplitLanes,
    forward: Radix2Plan,
    inverse: Radix2Plan,
}

/// Complex entries in one buffer as two lanes: every real part, then every
/// imaginary part. One buffer rather than two, so warming a scratch takes
/// one allocation per table, which the allocation tests count.
#[derive(Clone, Debug, Default)]
struct SplitLanes(Vec<f64>);

impl SplitLanes {
    /// Holds `n` zero entries, grown without slack.
    fn zeroed(&mut self, n: usize) -> (&mut [f64], &mut [f64]) {
        self.0.clear();
        self.0.reserve_exact(2 * n);
        self.0.resize(2 * n, 0.0);
        self.0.split_at_mut(n)
    }

    /// Holds the entries of `x`.
    fn load(&mut self, x: &[Complex64]) -> (&mut [f64], &mut [f64]) {
        let (re, im) = self.zeroed(x.len());
        lanes::split(x, (&mut *re, &mut *im));
        (re, im)
    }

    fn lanes(&self) -> (&[f64], &[f64]) {
        self.0.split_at(self.0.len() / 2)
    }
}

/// The entries of the lanes `(re, im)` as complex values.
fn entries<'a>(re: &'a [f64], im: &'a [f64]) -> impl Iterator<Item = Complex64> + 'a {
    re.iter().zip(im).map(|(&r, &i)| Complex64::new(r, i))
}

/// What a radix-2 transform of one length and direction needs besides its
/// input: the bit-reversal swaps and every stage's twiddles, generated by
/// the recurrence `w ← w·wlen` the unplanned loop stepped through, so a
/// planned transform computes the same products bit for bit.
#[derive(Clone, Debug, Default)]
struct Radix2Plan {
    key: Option<(usize, Direction)>,
    /// Index pairs `(i, j)`, `i < j`, that the bit reversal exchanges.
    swaps: Vec<(usize, usize)>,
    /// The stages' twiddles back to back: the stage of span `len` holds
    /// `wlen^k` for `k < len/2` from offset `len/2 − 1` on.
    twiddles: SplitLanes,
}

impl Radix2Plan {
    /// Plans length `n`, a power of two, in direction `dir`; a no-op when
    /// the plan already holds that length and direction.
    fn prepare(&mut self, n: usize, dir: Direction) {
        assert!(
            n.is_power_of_two(),
            "radix-2 FFT requires power-of-two length, got {n}"
        );
        if self.key == Some((n, dir)) {
            return;
        }
        self.key = Some((n, dir));
        self.swaps.clear();
        // Length 1 has no bit to reverse (and the shift would overflow).
        if n > 1 {
            let bits = n.trailing_zeros();
            for i in 0..n {
                let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
                if j > i {
                    self.swaps.push((i, j));
                }
            }
        }
        let (re, im) = self.twiddles.zeroed(n - 1);
        let mut slots = re.iter_mut().zip(im.iter_mut());
        let mut len = 2;
        while len <= n {
            let wlen = Complex64::cis(dir.sign() * 2.0 * PI / len as f64);
            let mut w = Complex64::ONE;
            for (r, i) in slots.by_ref().take(len / 2) {
                (*r, *i) = (w.re, w.im);
                w *= wlen;
            }
            len <<= 1;
        }
    }

    /// Transforms the lanes `(re, im)`, whose length the plan was prepared
    /// for, in place.
    fn run(&self, re: &mut [f64], im: &mut [f64]) {
        debug_assert!(self.key.map(|(n, _)| n) == Some(re.len()) && im.len() == re.len());
        butterflies((re, im), &self.swaps, self.twiddles.lanes());
    }
}

/// Every butterfly stage of a radix-2 transform of the split lanes
/// `x`, in natural order, with the bit-reversal swaps and stage twiddles
/// of a [`Radix2Plan`]. Runs the AVX2 twin when the CPU has AVX2
/// (DESIGN.md §8, *Twin kernels*).
fn butterflies(x: (&mut [f64], &mut [f64]), swaps: &[(usize, usize)], tw: (&[f64], &[f64])) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, the twin's only requirement.
        return unsafe { butterflies_avx2(x, swaps, tw) };
    }
    butterflies_baseline(x, swaps, tw);
}

/// [`butterflies`] compiled for the baseline target.
fn butterflies_baseline(
    x: (&mut [f64], &mut [f64]),
    swaps: &[(usize, usize)],
    tw: (&[f64], &[f64]),
) {
    butterflies_body(x, swaps, tw);
}

/// [`butterflies`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn butterflies_avx2(
    x: (&mut [f64], &mut [f64]),
    swaps: &[(usize, usize)],
    tw: (&[f64], &[f64]),
) {
    butterflies_body(x, swaps, tw);
}

/// The decimation-in-time stages. On bit-reversed input, stage `half`
/// pairs entry `k` of every block of `2·half` entries with entry
/// `k + half` under the stage's twiddle `k`. The early stages, whose blocks
/// are short, run before the bit reversal instead, on the same pairs in
/// natural order: there, stage `half` pairs the runs `[2g·d, (2g+1)·d)` and
/// `[(2g+1)·d, (2g+2)·d)`, `d = n/(2·half)`, under the one twiddle
/// `rev(g)` (`g` bit-reversed in `log₂ half` bits). A stage's pairs are
/// disjoint and the reversal only moves entries, so every butterfly runs
/// on the same operands either way.
#[inline(always)]
fn butterflies_body(
    (re, im): (&mut [f64], &mut [f64]),
    swaps: &[(usize, usize)],
    (mut wr, mut wi): (&[f64], &[f64]),
) {
    let n = re.len();
    debug_assert!(
        n.is_power_of_two() && im.len() == n && wr.len() + 1 >= n && wi.len() == wr.len()
    );
    let mut half = 1;
    // Natural order while a stage's runs are longer than its blocks
    // (d > half).
    while 2 * half * half < n {
        let (stage_r, rest_r) = wr.split_at(half);
        let (stage_i, rest_i) = wi.split_at(half);
        (wr, wi) = (rest_r, rest_i);
        let d = n / (2 * half);
        let bits = half.trailing_zeros();
        for (g, (run_r, run_i)) in re
            .chunks_exact_mut(2 * d)
            .zip(im.chunks_exact_mut(2 * d))
            .enumerate()
        {
            // `g` reversed in `bits` bits (0 when the stage has one twiddle).
            let k = g
                .reverse_bits()
                .checked_shr(usize::BITS - bits)
                .unwrap_or(0);
            let w = (stage_r[k], stage_i[k]);
            let (ur, vr) = run_r.split_at_mut(d);
            let (ui, vi) = run_i.split_at_mut(d);
            butterfly_run((ur, ui), (vr, vi), std::iter::repeat(w));
        }
        half <<= 1;
    }
    for &(i, j) in swaps {
        re.swap(i, j);
        im.swap(i, j);
    }
    while half < n {
        let (stage_r, rest_r) = wr.split_at(half);
        let (stage_i, rest_i) = wi.split_at(half);
        (wr, wi) = (rest_r, rest_i);
        for (block_r, block_i) in re
            .chunks_exact_mut(2 * half)
            .zip(im.chunks_exact_mut(2 * half))
        {
            let (ur, vr) = block_r.split_at_mut(half);
            let (ui, vi) = block_i.split_at_mut(half);
            let w = stage_r.iter().copied().zip(stage_i.iter().copied());
            butterfly_run((ur, ui), (vr, vi), w);
        }
        half <<= 1;
    }
}

/// The butterflies `(u, v) ← (u + v·w, u − v·w)` of two runs of split
/// lanes under the twiddles `w`, with [`Complex64`]'s product, sum and
/// difference.
#[inline(always)]
fn butterfly_run(
    (ur, ui): (&mut [f64], &mut [f64]),
    (vr, vi): (&mut [f64], &mut [f64]),
    w: impl Iterator<Item = (f64, f64)>,
) {
    let pairs = (ur.iter_mut().zip(ui.iter_mut())).zip(vr.iter_mut().zip(vi.iter_mut()));
    for (((ur, ui), (vr, vi)), (c, s)) in pairs.zip(w) {
        let (ar, ai) = (*ur, *ui);
        let (br, bi) = (*vr * c - *vi * s, *vr * s + *vi * c);
        (*ur, *ui) = (ar + br, ai + bi);
        (*vr, *vi) = (ar - br, ai - bi);
    }
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
        let plan = match dir {
            Direction::Forward => &mut scratch.forward,
            Direction::Inverse => &mut scratch.inverse,
        };
        plan.prepare(x.len(), dir);
        let (re, im) = scratch.work.load(x);
        plan.run(re, im);
        out.extend(entries(re, im));
    } else {
        bluestein_into(x, dir, out, scratch);
    }
}

/// In-place radix-2 transform through a plan and lanes built for this
/// call.
fn radix2_in_place(x: &mut [Complex64], dir: Direction) {
    let mut plan = Radix2Plan::default();
    plan.prepare(x.len(), dir);
    let mut lanes = SplitLanes::default();
    let (re, im) = lanes.load(x);
    plan.run(re, im);
    for (v, e) in x.iter_mut().zip(entries(re, im)) {
        *v = e;
    }
}

/// Bluestein's algorithm: expresses a length-N DFT as a convolution, carried
/// out with a power-of-two FFT of length ≥ 2N−1. Appends the N outputs to
/// `out`. Every product is [`Complex64`]'s, on the split lanes.
fn bluestein_into(x: &[Complex64], dir: Direction, out: &mut Vec<Complex64>, s: &mut FftScratch) {
    let n = x.len();
    if n == 0 {
        return;
    }
    let m = (2 * n - 1).next_power_of_two();
    debug_assert!(n <= m);
    s.forward.prepare(m, Direction::Forward);
    s.inverse.prepare(m, Direction::Inverse);
    if s.key != Some((n, dir)) {
        // Chirp: w[k] = e^{sign·jπk²/n}
        let (cr, ci) = s.chirp.zeroed(n);
        for (k, (r, i)) in cr.iter_mut().zip(ci.iter_mut()).enumerate() {
            // k² mod 2n to keep the angle argument small and precise.
            let k2 = (k as u128 * k as u128) % (2 * n as u128);
            let w = Complex64::cis(dir.sign() * PI * k2 as f64 / n as f64);
            (*r, *i) = (w.re, w.im);
        }
        let (cr, ci) = s.chirp.lanes();
        let (br, bi) = s.chirp_hat.zeroed(m);
        let conj = |(r, i): (&mut f64, &mut f64), (&c_r, &c_i): (&f64, &f64)| {
            (*r, *i) = (c_r, -c_i);
        };
        for (b, c) in br.iter_mut().zip(bi.iter_mut()).zip(cr.iter().zip(ci)) {
            conj(b, c);
        }
        // b[m − k] = conj(chirp[k]) for k = 1..n.
        let wrapped = cr.iter().zip(ci).skip(1);
        for (b, c) in br.iter_mut().rev().zip(bi.iter_mut().rev()).zip(wrapped) {
            conj(b, c);
        }
        s.forward.run(br, bi);
        s.key = Some((n, dir));
    }
    let (cr, ci) = s.chirp.lanes();
    let (ar, ai) = s.work.zeroed(m);
    // a = x ∘ chirp, zero-padded to m.
    let (xr, xi) = (&mut ar[..n], &mut ai[..n]);
    lanes::split(x, (&mut *xr, &mut *xi));
    lanes::mul_assign((xr, xi), (cr, ci));
    s.forward.run(ar, ai);
    lanes::mul_assign((&mut *ar, &mut *ai), s.chirp_hat.lanes());
    s.inverse.run(ar, ai);
    let scale = 1.0 / m as f64;
    out.extend(
        entries(ar, ai)
            .zip(entries(cr, ci))
            .map(|(v, w)| v.scale(scale) * w),
    );
}

#[cfg(test)]
mod interleaved {
    //! The transforms as they ran on interleaved [`Complex64`] entries
    //! before the split lanes, kept as the bit-exact test oracle: the same
    //! twiddle recurrence, the same butterfly order and the same Bluestein
    //! convolution.

    use super::{Direction, PI};
    use crate::complex::Complex64;

    /// Every stage's twiddles back to back, as a plan holds them.
    fn twiddles(n: usize, dir: Direction) -> Vec<Complex64> {
        let mut out = Vec::new();
        let mut len = 2;
        while len <= n {
            let wlen = Complex64::cis(dir.sign() * 2.0 * PI / len as f64);
            let mut w = Complex64::ONE;
            for _ in 0..len / 2 {
                out.push(w);
                w *= wlen;
            }
            len <<= 1;
        }
        out
    }

    /// The butterflies on interleaved entries already in bit-reversed
    /// order.
    fn butterflies(x: &mut [Complex64], twiddles: &[Complex64]) {
        let n = x.len();
        let mut half = 1;
        while half < n {
            let tw = &twiddles[half - 1..2 * half - 1];
            for block in x.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((u, v), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    let a = *u;
                    let b = *v * w;
                    *u = a + b;
                    *v = a - b;
                }
            }
            half <<= 1;
        }
    }

    /// In-place radix-2 transform of a power-of-two length.
    pub fn radix2(x: &mut [Complex64], dir: Direction) {
        let n = x.len();
        if n > 1 {
            let bits = n.trailing_zeros();
            for i in 0..n {
                let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
                if j > i {
                    x.swap(i, j);
                }
            }
        }
        butterflies(x, &twiddles(n, dir));
    }

    /// The unscaled transform of any length: radix-2 when possible,
    /// Bluestein otherwise.
    pub fn transform(x: &[Complex64], dir: Direction) -> Vec<Complex64> {
        let n = x.len();
        if n.is_power_of_two() {
            let mut out = x.to_vec();
            radix2(&mut out, dir);
            return out;
        }
        if n == 0 {
            return Vec::new();
        }
        let m = (2 * n - 1).next_power_of_two();
        let chirp: Vec<Complex64> = (0..n)
            .map(|k| {
                let k2 = (k as u128 * k as u128) % (2 * n as u128);
                Complex64::cis(dir.sign() * PI * k2 as f64 / n as f64)
            })
            .collect();
        let mut b = vec![Complex64::ZERO; m];
        for (bk, c) in b.iter_mut().zip(&chirp) {
            *bk = c.conj();
        }
        for (bk, c) in b.iter_mut().rev().zip(&chirp[1..]) {
            *bk = c.conj();
        }
        radix2(&mut b, Direction::Forward);
        let mut a = vec![Complex64::ZERO; m];
        for ((ak, &xk), &ck) in a.iter_mut().zip(x).zip(&chirp) {
            *ak = xk * ck;
        }
        radix2(&mut a, Direction::Forward);
        for (v, &bk) in a.iter_mut().zip(&b) {
            *v *= bk;
        }
        radix2(&mut a, Direction::Inverse);
        let scale = 1.0 / m as f64;
        a.iter()
            .zip(&chirp)
            .map(|(&v, &w)| v.scale(scale) * w)
            .collect()
    }
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

    /// Every entry's real and imaginary bits, for bit-for-bit comparisons.
    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    /// `n` seeded random entries with ±0, subnormals and large magnitudes
    /// spread through them.
    fn special_entries(n: usize, rng: &mut Rng64) -> Vec<Complex64> {
        let special = [0.0, -0.0, 4.9e-324, -2.2e-310, 1e150, -3e149];
        (0..n)
            .map(|i| match i % 5 {
                2 => Complex64::new(
                    special[rng.index(special.len())],
                    special[rng.index(special.len())],
                ),
                _ => rng.complex_normal(),
            })
            .collect()
    }

    #[test]
    fn split_butterfly_twins_agree_bit_for_bit() {
        // Both twins against each other and against the interleaved
        // transform they replaced (bit reversal, then the butterflies), on
        // every power of two up to 2048.
        let mut rng = Rng64::seed(12);
        let mut n = 1;
        while n <= 2048 {
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut plan = Radix2Plan::default();
                plan.prepare(n, dir);
                let x = special_entries(n, &mut rng);
                let mut oracle = x.clone();
                interleaved::radix2(&mut oracle, dir);
                let mut base = SplitLanes::default();
                let (re, im) = base.load(&x);
                butterflies_baseline((re, im), &plan.swaps, plan.twiddles.lanes());
                let (re, im) = base.lanes();
                let base: Vec<Complex64> = entries(re, im).collect();
                assert_eq!(bits(&base), bits(&oracle), "baseline, n = {n}, {dir:?}");
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut avx2 = SplitLanes::default();
                    let (re, im) = avx2.load(&x);
                    // SAFETY: the CPU supports AVX2 (checked above).
                    unsafe { butterflies_avx2((re, im), &plan.swaps, plan.twiddles.lanes()) };
                    let (re, im) = avx2.lanes();
                    let avx2: Vec<Complex64> = entries(re, im).collect();
                    assert_eq!(bits(&avx2), bits(&base), "avx2, n = {n}, {dir:?}");
                } else if n == 1 {
                    eprintln!("avx2 twin skipped: this CPU has no AVX2");
                }
            }
            n <<= 1;
        }
    }

    #[test]
    fn transforms_match_the_interleaved_oracle_bit_for_bit() {
        let mut rng = Rng64::seed(13);
        for n in [1usize, 2, 3, 20, 33, 37, 264, 527] {
            let x = special_entries(n, &mut rng);
            let forward = interleaved::transform(&x, Direction::Forward);
            let inverse = interleaved::transform(&x, Direction::Inverse);
            let scale = 1.0 / n as f64;
            let inverse: Vec<Complex64> = inverse.iter().map(|v| v.scale(scale)).collect();
            assert_eq!(bits(&fft(&x)), bits(&forward), "fft, n = {n}");
            assert_eq!(bits(&ifft(&x)), bits(&inverse), "ifft, n = {n}");
            let mut out = vec![Complex64::ONE; 3];
            ifft_into(&x, &mut out, &mut FftScratch::default());
            assert_eq!(bits(&out), bits(&inverse), "ifft_into, n = {n}");
            if n.is_power_of_two() {
                let mut y = x.clone();
                fft_in_place(&mut y);
                assert_eq!(bits(&y), bits(&forward), "fft_in_place, n = {n}");
                let mut y = x.clone();
                ifft_in_place(&mut y);
                assert_eq!(bits(&y), bits(&inverse), "ifft_in_place, n = {n}");
            }
        }
    }

    #[test]
    fn ifft_into_with_reused_scratch_is_bit_identical() {
        // Alternating lengths and directions re-key the cached chirp
        // tables and both radix-2 plans; every call must still reproduce
        // the one-shot transform bit for bit.
        let mut rng = Rng64::seed(10);
        let mut scratch = FftScratch::default();
        let mut out = Vec::new();
        let calls = [
            (264usize, Direction::Inverse),
            (264, Direction::Inverse),
            (37, Direction::Inverse),
            (64, Direction::Inverse),
            (264, Direction::Forward),
            (264, Direction::Inverse),
            (1024, Direction::Forward),
            (37, Direction::Forward),
            (512, Direction::Inverse),
            (264, Direction::Inverse),
            (1, Direction::Forward),
            (0, Direction::Inverse),
        ];
        for (n, dir) in calls {
            let x: Vec<Complex64> = (0..n).map(|_| rng.complex_normal()).collect();
            let one_shot = match dir {
                Direction::Forward => {
                    transform_into(&x, dir, &mut out, &mut scratch);
                    fft(&x)
                }
                Direction::Inverse => {
                    ifft_into(&x, &mut out, &mut scratch);
                    ifft(&x)
                }
            };
            assert_eq!(bits(&out), bits(&one_shot), "n = {n}, {dir:?}");
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn in_place_rejects_non_pow2() {
        let mut x = vec![Complex64::ZERO; 12];
        fft_in_place(&mut x);
    }
}
