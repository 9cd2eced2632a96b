//! Criterion benches for the channel substrate and the simulator's hot
//! loop: image-method path extraction, CSI synthesis, the one-shot probe,
//! the simulator's warm snapshot probe and its data slot (what bounds the
//! wall-clock of the Fig. 18 experiment sweeps), the drifting transmit
//! chain a data slot radiates through under faults and impairments, and
//! that chain's mutual-coupling stage alone.

use criterion::{criterion_group, criterion_main, Criterion};
use mmreliable::frontend::LinkFrontEnd;
use mmwave_array::coupling::MutualCoupling;
use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::steering::single_beam;
use mmwave_array::weights::BeamWeights;
use mmwave_bench::fingerprint::aging_schedule;
use mmwave_channel::blockage::BlockageProcess;
use mmwave_channel::channel::{GeometricChannel, UeReceiver};
use mmwave_channel::dynamics::DynamicChannel;
use mmwave_channel::environment::Scene;
use mmwave_channel::geom2d::v2;
use mmwave_channel::mobility::{Pose, Trajectory};
use mmwave_channel::snapshot::ChannelSnapshot;
use mmwave_dsp::rng::Rng64;
use mmwave_dsp::units::FC_28GHZ;
use mmwave_phy::chanest::{ChannelSounder, ProbeObservation};
use mmwave_phy::grid::ResourceGrid;
use mmwave_sim::scenario::{self, Scenario};
use mmwave_sim::{front_end_stack, ImpairmentConfig, SimFrontEnd};

fn bench_paths_to(c: &mut Criterion) {
    let scene = Scene::conference_room(FC_28GHZ);
    c.bench_function("scene_paths_to", |b| {
        b.iter(|| scene.paths_to(v2(0.9, 7.0), 180.0))
    });
}

fn bench_csi(c: &mut Criterion) {
    let scene = Scene::conference_room(FC_28GHZ);
    let ch = GeometricChannel::new(scene.paths_to(v2(0.9, 7.0), 180.0), FC_28GHZ);
    let geom = ArrayGeometry::paper_8x8();
    let w = single_beam(&geom, 7.0);
    let freqs = ResourceGrid::paper_400mhz().sounding_freqs(12);
    c.bench_function("csi_264_subcarriers", |b| {
        b.iter(|| ch.csi(&geom, &w, &UeReceiver::Omni, &freqs))
    });
}

fn bench_probe(c: &mut Criterion) {
    let scene = Scene::conference_room(FC_28GHZ);
    let ch = GeometricChannel::new(scene.paths_to(v2(0.9, 7.0), 180.0), FC_28GHZ);
    let geom = ArrayGeometry::paper_8x8();
    let w = single_beam(&geom, 7.0);
    let sounder = ChannelSounder::paper_indoor();
    let mut rng = Rng64::seed(9);
    c.bench_function("sounder_probe", |b| {
        b.iter(|| sounder.probe(&ch, &geom, &w, &UeReceiver::Omni, &mut rng))
    });
}

fn bench_probe_snapshot_into(c: &mut Criterion) {
    // The simulator's probe: a warm snapshot and a reused observation, so
    // this times CSI synthesis plus the noise tail and nothing else.
    let pose = Pose {
        pos: v2(0.9, 7.0),
        facing_deg: 180.0,
    };
    let dynamic = DynamicChannel::new(
        Scene::conference_room(FC_28GHZ),
        Trajectory::Static { pose },
        BlockageProcess::none(),
    );
    let geom = ArrayGeometry::paper_8x8();
    let w = single_beam(&geom, 7.0);
    let sounder = ChannelSounder::paper_indoor();
    let mut snap = ChannelSnapshot::new();
    snap.rebuild(&dynamic, &geom, &UeReceiver::Omni, 0.0);
    let mut obs = ProbeObservation::empty();
    let mut rng = Rng64::seed(10);
    sounder.probe_snapshot_into(&mut snap, &w, &mut rng, &mut obs);
    c.bench_function("probe_snapshot_into", |b| {
        b.iter(|| {
            sounder.probe_snapshot_into(&mut snap, &w, &mut rng, &mut obs);
            obs.noise_power_mw
        })
    });
}

fn bench_data_slots(c: &mut Criterion) {
    // One data slot: advance the clock by a slot, then the SNR metric
    // (snapshot rebuild plus band power) under a fixed beam. The four
    // mobility cases differ in what moves between slots: the pose
    // (translation re-traces and moves every delay), the gNB's facing
    // (rotation: AoDs move, delays do not), nothing (static) or a
    // waypoint walk in a 9-path channel with double bounces.
    let cases: [(&str, Scenario); 4] = [
        ("data_slot_translation", scenario::translation_1s()),
        ("data_slot_rotation", scenario::gnb_rotation(18.0)),
        ("data_slot_static", scenario::static_walker()),
        ("data_slot_natural_motion", scenario::natural_motion(1)),
    ];
    for (id, sc) in cases {
        let mut sim = sc.simulator(7);
        let w = single_beam(&sim.geom, 0.0);
        // Warm every workspace buffer to its high-water mark.
        for _ in 0..8 {
            let slot_s = sim.slot_s;
            sim.wait(slot_s);
            sim.true_snr_db(&w);
        }
        c.bench_function(id, |b| {
            b.iter(|| {
                let slot_s = sim.slot_s;
                sim.wait(slot_s);
                sim.true_snr_db(&w)
            })
        });
    }
}

fn bench_drift_chain(c: &mut Criterion) {
    // One data slot's radiated weights through the fingerprint's aging
    // array over `mild` impairments: the clock advances a slot, so the
    // gain drift hands the transmit chain (PA, mismatch, coupling) new
    // weights every time, and the stack runs it without a memo.
    let sim = scenario::static_walker().simulator(42);
    let w = single_beam(&sim.geom, 0.0);
    let mut fe = front_end_stack(sim, aging_schedule(), ImpairmentConfig::mild(4))
        .expect("aging over mild is a valid stack");
    let mut out = BeamWeights::muted(w.len());
    c.bench_function("drift_chain_64", |b| {
        b.iter(|| {
            let slot_s = fe.sim().slot_s;
            fe.wait(slot_s);
            fe.radiated_weights_into(&w, &mut out);
            out.as_slice()[0]
        })
    });
}

fn bench_coupling(c: &mut Criterion) {
    // The paper array's coupling stage at `mild`'s −30 dB and the stack's
    // 1 λ radius (612 entries on 12 diagonals), on a steered beam restored
    // before each pass so every pass sees the same input.
    let geom = ArrayGeometry::paper_8x8();
    let mut cpl = MutualCoupling::from_geometry(&geom, -30.0, 1.0);
    let input = single_beam(&geom, 7.0);
    let mut w = input.as_slice().to_vec();
    c.bench_function("coupling_64", |b| {
        b.iter(|| {
            w.copy_from_slice(input.as_slice());
            cpl.apply_in_place(&mut w);
            w[0]
        })
    });
}

fn bench_oracle_weights(c: &mut Criterion) {
    let scene = Scene::conference_room(FC_28GHZ);
    let ch = GeometricChannel::new(scene.paths_to(v2(0.9, 7.0), 180.0), FC_28GHZ);
    let geom = ArrayGeometry::paper_8x8();
    let freqs: Vec<f64> = (0..17).map(|i| -190e6 + 23.75e6 * i as f64).collect();
    c.bench_function("wideband_oracle_weights_64el", |b| {
        b.iter(|| ch.wideband_oracle_weights(&geom, &UeReceiver::Omni, &freqs))
    });
}

criterion_group!(
    benches,
    bench_paths_to,
    bench_csi,
    bench_probe,
    bench_probe_snapshot_into,
    bench_data_slots,
    bench_drift_chain,
    bench_coupling,
    bench_oracle_weights
);
criterion_main!(benches);
