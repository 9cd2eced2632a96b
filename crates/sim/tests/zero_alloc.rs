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

fn static_sim(seed: u64) -> LinkSimulator {
    let dynamic = DynamicChannel::new(
        Scene::conference_room(FC_28GHZ),
        Trajectory::Static {
            pose: Pose {
                pos: v2(0.9, 7.0),
                facing_deg: 180.0,
            },
        },
        BlockageProcess::none(),
    );
    LinkSimulator::new(
        dynamic,
        ChannelSounder::paper_indoor(),
        ArrayGeometry::paper_8x8(),
        UeReceiver::Omni,
        Rng64::seed(seed),
    )
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
