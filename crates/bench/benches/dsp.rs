//! Criterion benches for the DSP substrate: FFT, ridge least squares, and
//! sinc-dictionary construction — the hot kernels under the
//! super-resolution step (Table/Fig. 11's "100 µs" solve claim) — plus
//! one probe's worth of complex AWGN, the bulk of a probe's cost, and the
//! Rapp PA over one 64-element weight vector, the largest stage of the
//! impaired transmit chain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::fft::{fft, fft_in_place, ifft_into, FftScratch};
use mmwave_dsp::linalg::{ridge_least_squares, CMatrix};
use mmwave_dsp::nonlinearity::RappPa;
use mmwave_dsp::rng::Rng64;
use mmwave_dsp::sinc::sinc_dictionary;

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for n in [256usize, 1024, 4096] {
        let mut rng = Rng64::seed(1);
        let x: Vec<Complex64> = (0..n).map(|_| rng.complex_normal()).collect();
        group.bench_with_input(BenchmarkId::new("radix2", n), &n, |b, _| {
            b.iter(|| {
                let mut buf = x.clone();
                fft_in_place(&mut buf);
                buf
            })
        });
    }
    // Non-power-of-two (Bluestein path): the 264-subcarrier CSI comb.
    let mut rng = Rng64::seed(2);
    let x: Vec<Complex64> = (0..264).map(|_| rng.complex_normal()).collect();
    group.bench_function("bluestein_264", |b| b.iter(|| fft(&x)));
    // The coarse CIR of every super-resolution fit and training beam: a
    // warm inverse transform through a reused scratch.
    let mut scratch = FftScratch::default();
    let mut cir = Vec::new();
    group.bench_function("bluestein_ifft_264", |b| {
        b.iter(|| ifft_into(&x, &mut cir, &mut scratch))
    });
    group.finish();
}

fn bench_ridge(c: &mut Criterion) {
    let mut group = c.benchmark_group("ridge_least_squares");
    let mut rng = Rng64::seed(3);
    for k in [2usize, 3, 4] {
        // The super-resolution problem shape: 264 subcarriers × K beams.
        let cols: Vec<Vec<Complex64>> = (0..k)
            .map(|_| (0..264).map(|_| rng.complex_normal()).collect())
            .collect();
        let a = CMatrix::from_columns(&cols);
        let b_vec: Vec<Complex64> = (0..264).map(|_| rng.complex_normal()).collect();
        group.bench_with_input(BenchmarkId::new("264xK", k), &k, |b, _| {
            b.iter(|| ridge_least_squares(&a, &b_vec, 1e-3).unwrap())
        });
    }
    group.finish();
}

fn bench_sinc_dictionary(c: &mut Criterion) {
    c.bench_function("sinc_dictionary_264x3", |b| {
        b.iter(|| sinc_dictionary(264, 400e6, 2.5e-9, &[0.0, 5e-9, 11e-9]))
    });
}

fn bench_awgn(c: &mut Criterion) {
    // One 264-subcarrier probe's noise, drawn as a batch.
    let mut rng = Rng64::seed(4);
    let mut noise = vec![Complex64::ZERO; 264];
    c.bench_function("awgn_264", |b| {
        b.iter(|| {
            rng.complex_normals_into(&mut noise);
            noise[263]
        })
    });
}

fn bench_rapp_pa(c: &mut Criterion) {
    // `mild`'s PA on a 64-element unit-norm vector with a ±1.5 dB
    // amplitude spread, restored before each pass so every pass sees the
    // same input.
    let pa = RappPa::with_backoff(0.125, 8.0, 3.0, 3.0);
    let mut rng = Rng64::seed(5);
    let input: Vec<Complex64> = (0..64)
        .map(|_| {
            rng.random_phasor()
                .scale(0.125 * rng.uniform_in(0.84, 1.19))
        })
        .collect();
    let mut w = input.clone();
    c.bench_function("rapp_pa_64", |b| {
        b.iter(|| {
            w.copy_from_slice(&input);
            pa.apply(&mut w)
        })
    });
}

criterion_group!(
    benches,
    bench_fft,
    bench_ridge,
    bench_sinc_dictionary,
    bench_awgn,
    bench_rapp_pa
);
criterion_main!(benches);
