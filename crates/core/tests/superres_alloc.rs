//! Counted allocation budget of the super-resolution fit.
//!
//! Installs [`CountingAllocator`] as this binary's global allocator and
//! checks that a warmed [`estimate_per_beam_into`] allocates nothing: the
//! grid search, the Gram factorisations, the screened and confirmed jitter
//! trials and the coarse CIR peak estimate all run out of the caller's
//! [`SuperResScratch`], and the amplitudes, powers and refined delays are
//! written into the caller's [`PerBeamEstimate`].
//!
//! The counter is per thread, which the second test pins: allocations on
//! another thread never reach this thread's count.

use mmreliable::superres::{
    estimate_per_beam_into, PerBeamEstimate, SuperResConfig, SuperResScratch,
};
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::count_alloc::{allocation_count, CountingAllocator};
use mmwave_dsp::rng::Rng64;
use mmwave_phy::chanest::ProbeObservation;
use std::f64::consts::PI;
use std::sync::{Arc, Barrier};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The vectors the fit allocates for its output: none, since it writes
/// into a warm caller-owned estimate.
const OUTPUT_VECS: u64 = 0;

/// A K-beam probe over the 264-subcarrier comb, with CFO and noise.
fn probe(rel_delays_ns: &[f64], tau0_ns: f64, seed: u64) -> ProbeObservation {
    let mut rng = Rng64::seed(seed);
    let spacing = 12.0 * 120e3;
    let freqs: Vec<f64> = (0..264).map(|i| i as f64 * spacing).collect();
    let alphas: Vec<Complex64> = rel_delays_ns
        .iter()
        .map(|_| Complex64::from_polar(rng.uniform_in(0.2, 1.0), rng.uniform_in(-PI, PI)))
        .collect();
    let cfo = rng.random_phasor();
    let csi = freqs
        .iter()
        .map(|&f| {
            let mut acc = Complex64::ZERO;
            for (&a, &d) in alphas.iter().zip(rel_delays_ns) {
                acc += a * Complex64::cis(-2.0 * PI * f * (tau0_ns + d) * 1e-9);
            }
            cfo * acc + rng.awgn(1e-4)
        })
        .collect();
    ProbeObservation {
        csi,
        freqs_hz: freqs,
        noise_power_mw: 1e-4,
    }
}

#[test]
fn warmed_fit_into_a_warm_estimate_allocates_nothing() {
    let cfg = SuperResConfig::default();
    let four = [0.0, 3.0, 7.5, 12.0];
    let three = [0.0, 4.5, 11.0];
    let two = [0.0, 2.2];
    // Given delays 0.2 ns off the probe's: screened trials confirm and
    // commit.
    let drifted = [0.0, 4.7, 10.8];
    let probes: Vec<(ProbeObservation, &[f64])> = vec![
        (probe(&four, 26.0, 5), &four),
        (probe(&three, 24.0, 1), &three),
        (probe(&three, 31.0, 2), &three),
        (probe(&three, 29.0, 6), &drifted),
        (probe(&two, 27.5, 3), &two),
        (probe(&[0.0], 22.0, 4), &[0.0]),
    ];
    let mut scratch = SuperResScratch::default();
    let mut est = PerBeamEstimate::default();
    // Warm-up on the largest delay set grows every buffer to its
    // high-water mark; smaller sets then reuse the same storage.
    estimate_per_beam_into(&mut scratch, &probes[0].0, probes[0].1, &cfg, &mut est);
    for (obs, rel) in &probes {
        let before = allocation_count();
        estimate_per_beam_into(&mut scratch, obs, rel, &cfg, &mut est);
        let delta = allocation_count() - before;
        assert_eq!(
            delta,
            OUTPUT_VECS,
            "K = {}: fit allocated {delta} times, its output accounts for {OUTPUT_VECS}",
            rel.len()
        );
        // The fit did real work: every beam carries power.
        assert_eq!(est.powers_mw.len(), rel.len());
        assert!(
            est.powers_mw.iter().all(|&p| p > 0.01),
            "{:?}",
            est.powers_mw
        );
        if *rel == drifted {
            assert_ne!(est.rel_delays_ns, drifted, "no jitter trial committed");
        }
    }
}

#[test]
fn other_threads_do_not_reach_this_threads_count() {
    let barrier = Arc::new(Barrier::new(2));
    let worker_barrier = Arc::clone(&barrier);
    let worker = std::thread::spawn(move || {
        worker_barrier.wait();
        let before = allocation_count();
        for i in 0..1000u32 {
            std::hint::black_box(vec![i; 16]);
        }
        let own = allocation_count() - before;
        worker_barrier.wait();
        own
    });
    let before = allocation_count();
    // The worker allocates 1000 times between these two rendezvous, and
    // only then: the first releases it, the second waits for it.
    barrier.wait();
    barrier.wait();
    let here = allocation_count() - before;
    let worker_own = worker.join().expect("worker thread");
    assert_eq!(
        here, 0,
        "this thread's count saw {here} foreign allocations"
    );
    assert!(worker_own >= 1000, "worker counted only {worker_own}");
}
