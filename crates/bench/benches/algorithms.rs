//! Criterion benches for mmReliable's core algorithms: the super-resolution
//! per-beam decomposition (paper: solved "in 100 µs"), the two-probe
//! relative-channel math, one full controller maintenance round, and one
//! warm link (re)establishment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmreliable::frontend::SnapshotFrontEnd;
use mmreliable::probing::relative_from_powers;
use mmreliable::superres::{
    estimate_per_beam, estimate_per_beam_into, PerBeamEstimate, SuperResConfig, SuperResScratch,
};
use mmwave_array::geometry::ArrayGeometry;
use mmwave_channel::channel::{GeometricChannel, UeReceiver};
use mmwave_channel::environment::Scene;
use mmwave_channel::geom2d::v2;
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::rng::Rng64;
use mmwave_dsp::units::FC_28GHZ;
use mmwave_phy::chanest::{ChannelSounder, ProbeObservation};
use std::f64::consts::PI;

fn synth_probe(k: usize, seed: u64) -> ProbeObservation {
    let mut rng = Rng64::seed(seed);
    let n = 264;
    let spacing = 12.0 * 120e3;
    let freqs: Vec<f64> = (0..n)
        .map(|i| (i as f64 - (n as f64 - 1.0) / 2.0) * spacing)
        .collect();
    let delays: Vec<f64> = (0..k).map(|i| 25e-9 + 6e-9 * i as f64).collect();
    let csi: Vec<Complex64> = freqs
        .iter()
        .map(|&f| {
            let mut acc = Complex64::ZERO;
            for (i, &tau) in delays.iter().enumerate() {
                acc += Complex64::from_polar(1.0 / (i + 1) as f64, 0.3 * i as f64)
                    * Complex64::cis(-2.0 * PI * f * tau);
            }
            acc + rng.awgn(1e-6)
        })
        .collect();
    ProbeObservation {
        csi,
        freqs_hz: freqs,
        noise_power_mw: 1e-6,
    }
}

fn bench_superres(c: &mut Criterion) {
    let mut group = c.benchmark_group("superres_estimate");
    for k in [2usize, 3] {
        let obs = synth_probe(k, 7);
        let rel: Vec<f64> = (0..k).map(|i| 6.0 * i as f64).collect();
        let cfg = SuperResConfig::default();
        group.bench_with_input(BenchmarkId::new("beams", k), &k, |b, _| {
            b.iter(|| estimate_per_beam(&obs, &rel, &cfg))
        });
        // The controller's path: one scratch and one estimate reused
        // across fits.
        let mut scratch = SuperResScratch::default();
        let mut est = PerBeamEstimate::default();
        group.bench_with_input(BenchmarkId::new("beams_warm", k), &k, |b, _| {
            b.iter(|| estimate_per_beam_into(&mut scratch, &obs, &rel, &cfg, &mut est))
        });
    }
    // The controller's maintenance path: one scratch, and each fit's refined
    // delays fed back as the next fit's, over fresh-noise probes of one
    // quiet three-beam link.
    let probes: Vec<ProbeObservation> = (0..8).map(|seed| synth_probe(3, seed)).collect();
    let cfg = SuperResConfig::default();
    let mut scratch = SuperResScratch::default();
    let mut est = PerBeamEstimate::default();
    let mut rel = vec![0.0, 6.0, 12.0];
    let mut next = 0;
    group.bench_with_input(BenchmarkId::new("beams_chain", 3), &3, |b, _| {
        b.iter(|| {
            estimate_per_beam_into(&mut scratch, &probes[next], &rel, &cfg, &mut est);
            rel.clone_from(&est.rel_delays_ns);
            next = (next + 1) % probes.len();
        })
    });
    group.finish();
}

fn bench_two_probe_math(c: &mut Criterion) {
    let n = 264;
    let p1 = vec![1.0; n];
    let p2 = vec![0.3; n];
    let p3 = vec![0.8; n];
    let p4 = vec![0.6; n];
    let freqs: Vec<f64> = (0..n).map(|i| i as f64 * 1.44e6 - 190e6).collect();
    c.bench_function("relative_from_powers_264", |b| {
        b.iter(|| relative_from_powers(&p1, &p2, &p3, &p4, &freqs, 6.0))
    });
}

/// The conference room with the UE at (0.9, 7) m, frozen.
fn room_frontend(seed: u64) -> SnapshotFrontEnd {
    let scene = Scene::conference_room(FC_28GHZ);
    let paths = scene.paths_to(v2(0.9, 7.0), 180.0);
    SnapshotFrontEnd::new(
        GeometricChannel::new(paths, FC_28GHZ),
        ChannelSounder::paper_indoor(),
        ArrayGeometry::paper_8x8(),
        UeReceiver::Omni,
        Rng64::seed(seed),
    )
}

fn bench_maintenance_round(c: &mut Criterion) {
    let mut fe = room_frontend(8);
    let mut ctl = MmReliableController::new(MmReliableConfig::paper_default());
    ctl.establish(&mut fe);
    c.bench_function("maintenance_round_quiet", |b| {
        b.iter(|| ctl.maintenance_round(&mut fe))
    });
}

/// A re-acquisition: the 64-beam SSB scan, the two-probe relative
/// channels, the baseline probe and its fit, on a controller whose
/// buffers an earlier establish has already warmed.
fn bench_establish(c: &mut Criterion) {
    let mut fe = room_frontend(9);
    let mut ctl = MmReliableController::new(MmReliableConfig::paper_default());
    ctl.establish(&mut fe);
    c.bench_function("establish_warm_64_beams", |b| {
        b.iter(|| ctl.establish(&mut fe))
    });
}

criterion_group!(
    benches,
    bench_superres,
    bench_two_probe_math,
    bench_maintenance_round,
    bench_establish
);
criterion_main!(benches);
