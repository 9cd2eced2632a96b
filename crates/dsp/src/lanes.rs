//! Complex vectors on split lanes: every real part in one slice, every
//! imaginary part in another, so element-wise complex arithmetic runs on
//! packed registers. Each kernel computes, entry by entry, exactly the
//! operations [`Complex64`]'s arithmetic runs, and each runs on an AVX2
//! twin where the CPU has AVX2 (DESIGN.md §8, *Twin kernels*). The FFT's
//! Bluestein convolution and the super-resolution fit's rows, probe load
//! and phasor walk run on them.

use crate::complex::Complex64;

/// `(re, im)`: the split lanes of a complex vector.
pub type Lanes<'a> = (&'a [f64], &'a [f64]);

/// `(re, im)`: the split lanes of a complex vector, writable.
pub type LanesMut<'a> = (&'a mut [f64], &'a mut [f64]);

/// `p ← p ∘ u`: every entry of `p` times the matching entry of `u`,
/// rounded as [`Complex64`]'s product `p·u`. All four lanes have the same
/// length.
pub fn mul_assign(p: LanesMut<'_>, u: Lanes<'_>) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, the twin's only requirement.
        return unsafe { mul_assign_avx2(p, u) };
    }
    mul_assign_baseline(p, u);
}

/// [`mul_assign`] compiled for the baseline target.
fn mul_assign_baseline(p: LanesMut<'_>, u: Lanes<'_>) {
    mul_assign_body(p, u);
}

/// [`mul_assign`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_assign_avx2(p: LanesMut<'_>, u: Lanes<'_>) {
    mul_assign_body(p, u);
}

#[inline(always)]
fn mul_assign_body((pr, pi): LanesMut<'_>, (ur, ui): Lanes<'_>) {
    debug_assert!(pi.len() == pr.len() && ur.len() == pr.len() && ui.len() == pr.len());
    for ((pr, pi), (&ur, &ui)) in pr.iter_mut().zip(pi.iter_mut()).zip(ur.iter().zip(ui)) {
        let (r, i) = (*pr, *pi);
        (*pr, *pi) = (r * ur - i * ui, r * ui + i * ur);
    }
}

/// `out = x ∘ z`, or `x ∘ z*` when `CONJ_Z`: each entry rounded as
/// [`Complex64`]'s product `x·z` (`x·z.conj()`). All six lanes have the
/// same length.
pub fn mul_into<const CONJ_Z: bool>(x: Lanes<'_>, z: Lanes<'_>, out: LanesMut<'_>) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, the twin's only requirement.
        return unsafe { mul_into_avx2::<CONJ_Z>(x, z, out) };
    }
    mul_into_baseline::<CONJ_Z>(x, z, out);
}

/// [`mul_into`] compiled for the baseline target.
fn mul_into_baseline<const CONJ_Z: bool>(x: Lanes<'_>, z: Lanes<'_>, out: LanesMut<'_>) {
    mul_into_body::<CONJ_Z>(x, z, out);
}

/// [`mul_into`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_into_avx2<const CONJ_Z: bool>(x: Lanes<'_>, z: Lanes<'_>, out: LanesMut<'_>) {
    mul_into_body::<CONJ_Z>(x, z, out);
}

/// `(a + jb)·(r + js)` with `s = ±i` (the conjugation is an exact
/// negation): `(ar − bs) + j(as + br)`.
#[inline(always)]
fn mul_into_body<const CONJ_Z: bool>(
    (xr, xi): Lanes<'_>,
    (zr, zi): Lanes<'_>,
    (or, oi): LanesMut<'_>,
) {
    let n = or.len();
    debug_assert!([xr.len(), xi.len(), zr.len(), zi.len(), oi.len()] == [n; 5]);
    let outs = or.iter_mut().zip(oi.iter_mut());
    let ins = xr.iter().zip(xi).zip(zr.iter().zip(zi));
    for ((o_r, o_i), ((&a, &b), (&r, &i))) in outs.zip(ins) {
        let s = if CONJ_Z { -i } else { i };
        (*o_r, *o_i) = (a * r - b * s, a * s + b * r);
    }
}

/// Splits the interleaved entries `v` into the lanes `out`, of the same
/// length.
pub fn split(v: &[Complex64], out: LanesMut<'_>) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, the twin's only requirement.
        return unsafe { split_avx2(v, out) };
    }
    split_baseline(v, out);
}

/// [`split`] compiled for the baseline target.
fn split_baseline(v: &[Complex64], out: LanesMut<'_>) {
    split_body(v, out);
}

/// [`split`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn split_avx2(v: &[Complex64], out: LanesMut<'_>) {
    split_body(v, out);
}

#[inline(always)]
fn split_body(v: &[Complex64], (re, im): LanesMut<'_>) {
    debug_assert!(re.len() == v.len() && im.len() == v.len());
    for ((r, i), c) in re.iter_mut().zip(im.iter_mut()).zip(v) {
        (*r, *i) = (c.re, c.im);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// `n` seeded entries with ±0, subnormals and large magnitudes spread
    /// through them.
    fn entries(n: usize, rng: &mut Rng64) -> Vec<Complex64> {
        let special = [0.0, -0.0, 4.9e-324, -2.2e-310, 1e150, -3e149];
        (0..n)
            .map(|i| match i % 4 {
                1 => Complex64::new(special[rng.index(special.len())], rng.uniform_in(-2.0, 2.0)),
                3 => Complex64::new(
                    special[rng.index(special.len())],
                    special[rng.index(special.len())],
                ),
                _ => rng.complex_normal(),
            })
            .collect()
    }

    fn lanes_of(v: &[Complex64]) -> (Vec<f64>, Vec<f64>) {
        (
            v.iter().map(|c| c.re).collect(),
            v.iter().map(|c| c.im).collect(),
        )
    }

    fn bits((re, im): (&[f64], &[f64])) -> Vec<(u64, u64)> {
        re.iter()
            .zip(im)
            .map(|(r, i)| (r.to_bits(), i.to_bits()))
            .collect()
    }

    fn complex_bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    const LENGTHS: [usize; 8] = [0, 1, 3, 4, 5, 263, 264, 265];

    /// Both twins of a kernel, each on fresh copies of its inputs, against
    /// the per-entry [`Complex64`] oracle `want`.
    fn check_twins(
        what: &str,
        want: &[Complex64],
        mut run: impl FnMut(bool) -> (Vec<f64>, Vec<f64>),
    ) {
        let base = run(false);
        assert_eq!(
            bits((&base.0, &base.1)),
            complex_bits(want),
            "{what}, baseline"
        );
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let avx2 = run(true);
            assert_eq!(bits((&avx2.0, &avx2.1)), complex_bits(want), "{what}, avx2");
        } else {
            eprintln!("{what}: avx2 twin skipped, this CPU has no AVX2");
        }
    }

    #[test]
    fn mul_assign_twins_match_the_complex_product_bit_for_bit() {
        let mut rng = Rng64::seed(0x1a5);
        for n in LENGTHS {
            let (p, u) = (entries(n, &mut rng), entries(n, &mut rng));
            let want: Vec<Complex64> = p.iter().zip(&u).map(|(&p, &u)| p * u).collect();
            let (ur, ui) = lanes_of(&u);
            check_twins(&format!("mul_assign, n = {n}"), &want, |avx2| {
                let (mut pr, mut pi) = lanes_of(&p);
                let (out, u) = ((&mut pr[..], &mut pi[..]), (&ur[..], &ui[..]));
                if avx2 {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `check_twins` asks for the twin only on AVX2.
                    unsafe {
                        mul_assign_avx2(out, u)
                    };
                } else {
                    mul_assign_baseline(out, u);
                }
                (pr, pi)
            });
        }
    }

    #[test]
    fn mul_into_twins_match_the_complex_product_bit_for_bit() {
        let mut rng = Rng64::seed(0x1a6);
        for n in LENGTHS {
            let (x, z) = (entries(n, &mut rng), entries(n, &mut rng));
            let ((xr, xi), (zr, zi)) = (lanes_of(&x), lanes_of(&z));
            for conj in [false, true] {
                let want: Vec<Complex64> = x
                    .iter()
                    .zip(&z)
                    .map(|(&x, &z)| x * if conj { z.conj() } else { z })
                    .collect();
                check_twins(&format!("mul_into, n = {n}, conj {conj}"), &want, |avx2| {
                    let (mut or, mut oi) = (vec![7.0; n], vec![7.0; n]);
                    let (x, z) = ((&xr[..], &xi[..]), (&zr[..], &zi[..]));
                    let out = (&mut or[..], &mut oi[..]);
                    match (avx2, conj) {
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: `check_twins` asks for the twin only on AVX2.
                        (true, false) => unsafe { mul_into_avx2::<false>(x, z, out) },
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: as above.
                        (true, true) => unsafe { mul_into_avx2::<true>(x, z, out) },
                        (_, false) => mul_into_baseline::<false>(x, z, out),
                        (_, true) => mul_into_baseline::<true>(x, z, out),
                    }
                    (or, oi)
                });
            }
        }
    }

    #[test]
    fn split_twins_match_the_entries_bit_for_bit() {
        let mut rng = Rng64::seed(0x1a7);
        for n in LENGTHS {
            let v = entries(n, &mut rng);
            check_twins(&format!("split, n = {n}"), &v, |avx2| {
                let (mut re, mut im) = (vec![7.0; n], vec![7.0; n]);
                let out = (&mut re[..], &mut im[..]);
                if avx2 {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `check_twins` asks for the twin only on AVX2.
                    unsafe {
                        split_avx2(&v, out)
                    };
                } else {
                    split_baseline(&v, out);
                }
                (re, im)
            });
        }
    }
}
