//! Zero-allocation guarantee for steady-state data slots.
//!
//! Installs [`CountingAllocator`] as this binary's global allocator, warms
//! every scratch buffer to its high-water mark with a real run, then drives
//! 1 000 steady-state data slots — the exact per-slot sequence of the run
//! loop (`observe_truth` → `weights_into` → `radiated_weights_into` →
//! `true_snr_db` → clock advance) — and asserts the allocator was never
//! called. This pins the tentpole property of DESIGN.md §8: after warm-up,
//! the data plane runs entirely out of [`SlotWorkspace`] and the run loop's
//! reusable weight scratch.
//!
//! The counter is per thread, so tests the harness runs concurrently in
//! this binary cannot pollute each other's measurement; each test drives
//! its whole measured loop on its own thread.

use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::weights::BeamWeights;
use mmwave_baselines::strategy::BeamStrategy;
use mmwave_baselines::SingleBeamReactive;
use mmwave_channel::blockage::BlockageProcess;
use mmwave_channel::channel::UeReceiver;
use mmwave_channel::dynamics::DynamicChannel;
use mmwave_channel::environment::Scene;
use mmwave_channel::geom2d::v2;
use mmwave_channel::mobility::{Pose, Trajectory};
use mmwave_dsp::count_alloc::{allocation_count, CountingAllocator};
use mmwave_dsp::rng::Rng64;
use mmwave_dsp::units::FC_28GHZ;
use mmwave_phy::chanest::ChannelSounder;
use mmwave_sim::simulator::{LinkSimulator, SimFrontEnd};

use mmreliable::frontend::LinkFrontEnd;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn sim_on(trajectory: Trajectory, seed: u64) -> LinkSimulator {
    LinkSimulator::new(
        DynamicChannel::new(
            Scene::conference_room(FC_28GHZ),
            trajectory,
            BlockageProcess::none(),
        ),
        ChannelSounder::paper_indoor(),
        ArrayGeometry::paper_8x8(),
        UeReceiver::Omni,
        Rng64::seed(seed),
    )
}

fn static_sim(seed: u64) -> LinkSimulator {
    let pose = Pose {
        pos: v2(0.9, 7.0),
        facing_deg: 180.0,
    };
    sim_on(Trajectory::Static { pose }, seed)
}

/// A UE walking the paper's 1.5 m/s translation: every slot moves the
/// pose, so the snapshot re-traces the scene, rebuilds its steering rows
/// and refills a phase-table slot on every slot.
fn translating_sim(seed: u64) -> LinkSimulator {
    sim_on(Trajectory::paper_translation(v2(0.0, 7.0)), seed)
}

/// Drives `slots` steady-state data slots of `strategy` on `fe` — the
/// run loop's exact per-slot sequence — and returns the mean SNR, dB.
fn data_slots<F: SimFrontEnd>(
    fe: &mut F,
    strategy: &mut dyn BeamStrategy,
    w_data: &mut BeamWeights,
    w_rad: &mut BeamWeights,
    slots: usize,
) -> f64 {
    let slot_s = fe.sim().slot_s;
    let mut acc = 0.0f64;
    for _ in 0..slots {
        strategy.observe_truth(fe.sim_mut().channel_now());
        strategy.weights_into(w_data);
        fe.radiated_weights_into(w_data, w_rad);
        acc += fe.sim_mut().true_snr_db(w_rad);
        fe.sim_mut().wait(slot_s);
    }
    acc / slots as f64
}

#[test]
fn steady_state_data_slots_do_not_allocate() {
    let mut sim = static_sim(11);
    let mut strategy = SingleBeamReactive::new(Default::default());
    // Warm-up: a real run trains the beam and grows every scratch buffer
    // (snapshot path/steering/phase caches, SNR comb + CSI scratch) to its
    // steady-state size.
    let _ = sim.run(&mut strategy, 0.05, 20e-3, "warmup");

    // The run loop's per-slot scratch, allocated once up front exactly as
    // `run_front_end` does.
    let n = sim.geom.num_elements();
    let mut w_data = BeamWeights::muted(n);
    let mut w_rad = BeamWeights::muted(n);
    let slot_s = sim.slot_s;
    // A few unmeasured slots settle lazily-sized buffers (first
    // `weights_into` into the fresh scratch, etc.).
    for _ in 0..8 {
        strategy.observe_truth(sim.channel_now());
        strategy.weights_into(&mut w_data);
        sim.radiated_weights_into(&w_data, &mut w_rad);
        let _ = sim.true_snr_db(&w_rad);
        sim.wait(slot_s);
    }

    let before = allocation_count();
    let mut acc = 0.0f64;
    for _ in 0..1000 {
        strategy.observe_truth(sim.channel_now());
        strategy.weights_into(&mut w_data);
        sim.radiated_weights_into(&w_data, &mut w_rad);
        acc += sim.true_snr_db(&w_rad);
        sim.wait(slot_s);
    }
    let delta = allocation_count() - before;
    assert_eq!(
        delta, 0,
        "steady-state slots allocated {delta} times over 1000 slots"
    );
    // The loop did real work: a trained static link sits far above outage.
    assert!(acc / 1000.0 > 20.0, "mean snr {}", acc / 1000.0);
}

/// The impairment layer's hot-path contract: with every analog stage
/// enabled (PA, mismatch, coupling on the weight path; phase noise, LO
/// leakage, ADC on the probe path), the steady-state data-slot sequence
/// still never touches the allocator — the per-slot weight transform runs
/// out of the decorator's precomputed tables and a stack scratch buffer.
#[test]
fn impaired_steady_state_slots_do_not_allocate() {
    use mmwave_sim::impairments::{ImpairedFrontEnd, ImpairmentConfig};

    let mut fe = ImpairedFrontEnd::new(static_sim(11), ImpairmentConfig::moderate(3))
        .expect("valid impairment config");
    let mut strategy = SingleBeamReactive::new(Default::default());
    // Warm-up: train the beam and grow every scratch buffer, probe path
    // included, to its steady-state high-water mark.
    let _ = fe.run(&mut strategy, 0.05, 20e-3, "warmup");

    let n = fe.sim().geom.num_elements();
    let mut w_data = BeamWeights::muted(n);
    let mut w_rad = BeamWeights::muted(n);
    let slot_s = fe.sim().slot_s;
    for _ in 0..8 {
        strategy.observe_truth(fe.sim_mut().channel_now());
        strategy.weights_into(&mut w_data);
        fe.radiated_weights_into(&w_data, &mut w_rad);
        let _ = fe.sim_mut().true_snr_db(&w_rad);
        fe.sim_mut().wait(slot_s);
    }

    let before = allocation_count();
    let mut acc = 0.0f64;
    for _ in 0..1000 {
        strategy.observe_truth(fe.sim_mut().channel_now());
        strategy.weights_into(&mut w_data);
        fe.radiated_weights_into(&w_data, &mut w_rad);
        acc += fe.sim_mut().true_snr_db(&w_rad);
        fe.sim_mut().wait(slot_s);
    }
    let delta = allocation_count() - before;
    assert_eq!(
        delta, 0,
        "impaired steady-state slots allocated {delta} times over 1000 slots"
    );
    // The loop did real work through the impaired weight path: a trained
    // static link still sits well above outage.
    assert!(acc / 1000.0 > 10.0, "mean snr {}", acc / 1000.0);
}

/// The telemetry layer's zero-overhead contract, half one: with a
/// [`NullSink`] tracer installed, the exact steady-state slot sequence
/// *plus* the run loop's per-slot telemetry calls (span begin/end into the
/// latency histogram, decimated slot offer) still never touches the
/// allocator. Histograms are fixed inline arrays and a discarded
/// [`SlotTrace`] is `Copy`, so instrumentation costs cycles, not heap.
#[cfg(feature = "telemetry")]
#[test]
fn null_sink_telemetry_does_not_allocate() {
    use mmwave_telemetry::{NullSink, SlotTrace, Stage, Tracer};

    let mut sim = static_sim(11);
    let mut strategy = SingleBeamReactive::new(Default::default());
    let _ = sim.run(&mut strategy, 0.05, 20e-3, "warmup");

    let tracer = Tracer::new(Box::new(NullSink), 1);
    let n = sim.geom.num_elements();
    let mut w_data = BeamWeights::muted(n);
    let mut w_rad = BeamWeights::muted(n);
    let slot_s = sim.slot_s;
    for _ in 0..8 {
        strategy.observe_truth(sim.channel_now());
        strategy.weights_into(&mut w_data);
        sim.radiated_weights_into(&w_data, &mut w_rad);
        let _ = sim.true_snr_db(&w_rad);
        sim.wait(slot_s);
    }

    let before = allocation_count();
    for slot in 0..1000u64 {
        let clock = tracer.begin();
        strategy.observe_truth(sim.channel_now());
        strategy.weights_into(&mut w_data);
        sim.radiated_weights_into(&w_data, &mut w_rad);
        let snr = sim.true_snr_db(&w_rad);
        tracer.end(clock, Stage::DataSlot, sim.now_s());
        tracer.slot(SlotTrace {
            slot,
            t_s: sim.now_s(),
            snr_db: snr,
            blockage_db: 0.0,
            probing: false,
            outage: snr < sim.outage_snr_db,
        });
        sim.wait(slot_s);
    }
    let delta = allocation_count() - before;
    assert_eq!(
        delta, 0,
        "NullSink-instrumented slots allocated {delta} times over 1000 slots"
    );
    // The instrumentation did real work: every span landed in the
    // histogram.
    assert_eq!(tracer.latency().stage(Stage::DataSlot).count, 1000);
}

/// Zero-overhead contract, half two: a [`NullSink`]-traced run is
/// bit-identical to an untraced one — same samples, same digest — while
/// still filling in the latency percentiles the untraced run leaves zero.
/// (`RunResult::latency` is wall-clock derived and deliberately excluded
/// from the digest.)
#[cfg(feature = "telemetry")]
#[test]
fn null_sink_run_is_bit_identical_to_untraced() {
    use mmreliable::config::MmReliableConfig;
    use mmreliable::controller::MmReliableController;
    use mmwave_baselines::strategy::MmReliableStrategy;
    use mmwave_telemetry::{NullSink, Tracer};

    let run = |traced: bool| {
        let mut sim = static_sim(23);
        if traced {
            sim.set_tracer(Tracer::new(Box::new(NullSink), 1));
        }
        let mut strategy =
            MmReliableStrategy::new(MmReliableController::new(MmReliableConfig::paper_default()));
        sim.run(&mut strategy, 0.2, 10e-3, "fingerprint")
    };
    let bare = run(false);
    let traced = run(true);
    assert_eq!(
        bare.digest(),
        traced.digest(),
        "NullSink tracing must not perturb the run"
    );
    assert_eq!(bare.samples.len(), traced.samples.len());
    assert!(
        traced.latency.tick().count > 0,
        "traced run reports tick latency percentiles"
    );
    assert_eq!(
        bare.latency.tick().count,
        0,
        "untraced run leaves latency all-zero"
    );
}

/// A moving UE never reuses the snapshot: the pose, every AoD and every
/// path delay change from slot to slot, so the ray trace, the tiled
/// steering rows and the SNR comb's phase table are rebuilt each slot —
/// in place, without touching the allocator.
#[test]
fn translating_ue_data_slots_do_not_allocate() {
    let mut sim = translating_sim(11);
    let mut strategy = SingleBeamReactive::new(Default::default());
    // Warm-up: training probes fill the sounder comb's phase-table slot,
    // data slots the SNR comb's.
    let _ = sim.run(&mut strategy, 0.05, 20e-3, "warmup");
    let n = sim.geom.num_elements();
    let mut w_data = BeamWeights::muted(n);
    let mut w_rad = BeamWeights::muted(n);
    let _ = data_slots(&mut sim, &mut strategy, &mut w_data, &mut w_rad, 8);
    let aod_before = sim.channel_now().paths[0].aod_deg;

    let before = allocation_count();
    let mean_snr = data_slots(&mut sim, &mut strategy, &mut w_data, &mut w_rad, 1000);
    let delta = allocation_count() - before;
    assert_eq!(
        delta, 0,
        "moving-UE slots allocated {delta} times over 1000 slots"
    );
    // The geometry really moved, so every slot rebuilt its rows.
    assert_ne!(sim.channel_now().paths[0].aod_deg, aod_before);
    assert!(mean_snr > 10.0, "mean snr {mean_snr}");
}

/// The impairment layer's data-plane memo, both ways: slots that repeat
/// the last weights hit it, and a weight change misses it and refills the
/// buffers sized at construction. Neither path allocates.
#[test]
fn impaired_memo_hits_and_misses_do_not_allocate() {
    use mmwave_array::steering::single_beam;
    use mmwave_sim::impairments::{ImpairedFrontEnd, ImpairmentConfig};

    let mut fe = ImpairedFrontEnd::new(static_sim(11), ImpairmentConfig::moderate(3))
        .expect("valid impairment config");
    let mut strategy = SingleBeamReactive::new(Default::default());
    let _ = fe.run(&mut strategy, 0.05, 20e-3, "warmup");
    let geom = fe.sim().geom;
    let beams = [single_beam(&geom, -4.0), single_beam(&geom, 9.0)];
    let want: Vec<BeamWeights> = beams.iter().map(|w| fe.impaired_weights(w)).collect();
    let mut w_rad = BeamWeights::muted(geom.num_elements());
    fe.radiated_weights_into(&beams[0], &mut w_rad);
    let slot_s = fe.sim().slot_s;

    let before = allocation_count();
    let mut acc = 0.0f64;
    for slot in 0..1000 {
        // Switch beams every 50 slots: one miss, then 49 hits.
        let k = (slot / 50) % 2;
        fe.radiated_weights_into(&beams[k], &mut w_rad);
        acc += fe.sim_mut().true_snr_db(&w_rad);
        fe.sim_mut().wait(slot_s);
    }
    let delta = allocation_count() - before;
    assert_eq!(
        delta, 0,
        "memoised impaired slots allocated {delta} times over 1000 slots"
    );
    assert!(acc.is_finite());
    // Both entries still serve the exact impaired transform.
    for (w, want) in beams.iter().zip(&want) {
        fe.radiated_weights_into(w, &mut w_rad);
        assert_eq!(w_rad.as_slice(), want.as_slice());
    }
}

/// The drift lane: gain drift over mild impairments through
/// [`FrontEndStack::Both`]. Drift hands the impairment layer new weights on
/// every slot, so every slot misses the memo and runs the drift, PA,
/// mismatch and coupling kernels in full, still without allocating.
#[test]
fn drift_lane_stack_slots_do_not_allocate() {
    use mmwave_sim::{FaultSchedule, FrontEndStack, ImpairmentConfig};

    // Elements 3/17/42 dead, ±1.5 dB drift with a 0.5 s period.
    let aging = FaultSchedule {
        seed: 17,
        failed_elements: vec![3, 17, 42],
        gain_drift_db: 1.5,
        gain_drift_period_s: 0.5,
        ..FaultSchedule::none()
    };
    let mut fe =
        FrontEndStack::new(static_sim(11), aging, ImpairmentConfig::mild(4)).expect("valid stack");
    assert!(matches!(fe, FrontEndStack::Both(_)));
    let mut strategy = SingleBeamReactive::new(Default::default());
    let _ = fe.run(&mut strategy, 0.05, 20e-3, "warmup");

    let n = fe.sim().geom.num_elements();
    let mut w_data = BeamWeights::muted(n);
    let mut w_rad = BeamWeights::muted(n);
    let mut previous = BeamWeights::muted(n);
    let slot_s = fe.sim().slot_s;
    for _ in 0..8 {
        strategy.observe_truth(fe.sim_mut().channel_now());
        strategy.weights_into(&mut w_data);
        fe.radiated_weights_into(&w_data, &mut previous);
        fe.sim_mut().wait(slot_s);
    }

    let before = allocation_count();
    let mut acc = 0.0f64;
    let mut changed = 0usize;
    for _ in 0..1000 {
        strategy.observe_truth(fe.sim_mut().channel_now());
        strategy.weights_into(&mut w_data);
        fe.radiated_weights_into(&w_data, &mut w_rad);
        changed += usize::from(w_rad != previous);
        previous.copy_from(&w_rad);
        acc += fe.sim_mut().true_snr_db(&w_rad);
        fe.sim_mut().wait(slot_s);
    }
    let delta = allocation_count() - before;
    assert_eq!(
        delta, 0,
        "drift-lane slots allocated {delta} times over 1000 slots"
    );
    assert_eq!(
        changed, 1000,
        "drift must change the radiated weights every slot"
    );
    assert!(acc / 1000.0 > 10.0, "mean snr {}", acc / 1000.0);
}

/// mmReliable's data plane: between maintenance ticks a slot reads the
/// controller's cached multi-beam weights and runs the same snapshot
/// readers as the baseline, allocation-free.
#[test]
fn mmreliable_data_slots_do_not_allocate() {
    use mmreliable::config::MmReliableConfig;
    use mmreliable::controller::MmReliableController;
    use mmwave_baselines::strategy::MmReliableStrategy;

    let mut sim = static_sim(11);
    let mut strategy =
        MmReliableStrategy::new(MmReliableController::new(MmReliableConfig::paper_default()));
    let _ = sim.run(&mut strategy, 0.05, 20e-3, "warmup");
    let n = sim.geom.num_elements();
    let mut w_data = BeamWeights::muted(n);
    let mut w_rad = BeamWeights::muted(n);
    let _ = data_slots(&mut sim, &mut strategy, &mut w_data, &mut w_rad, 8);

    let before = allocation_count();
    let mean_snr = data_slots(&mut sim, &mut strategy, &mut w_data, &mut w_rad, 1000);
    let delta = allocation_count() - before;
    assert_eq!(
        delta, 0,
        "mmReliable data slots allocated {delta} times over 1000 slots"
    );
    assert!(mean_snr > 20.0, "mean snr {mean_snr}");
}
