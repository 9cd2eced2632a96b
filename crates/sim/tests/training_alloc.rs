//! Counted allocation budgets of the beam-training scans.
//!
//! Installs [`CountingAllocator`] as this binary's global allocator and
//! checks that a warmed [`beam_training`] over a [`LinkSimulator`]
//! allocates exactly its output vectors — the profile, the per-beam
//! delays, the peak-finding's candidate and picked lists, and the viable
//! paths — and nothing else: each of the 64 beams is steered into the
//! scratch's reused probe weights, the SSB probes fill its two reused
//! observations in place, and the coarse CIR delays run on its warm
//! transform buffers. The baselines' rescans allocate nothing at
//! all once warm: each strategy steers the beams it probes into one
//! reused buffer and probes into one reused observation.
//!
//! The counter is per thread, so tests the harness runs concurrently in
//! this binary cannot pollute each other's measurement.

use mmreliable::superres::SuperResScratch;
use mmreliable::training::beam_training;
use mmwave_array::codebook::PAPER_SCAN_BEAMS;
use mmwave_array::geometry::ArrayGeometry;
use mmwave_baselines::beamspy::BeamSpyConfig;
use mmwave_baselines::nr_periodic::NrPeriodicConfig;
use mmwave_baselines::single_reactive::ReactiveConfig;
use mmwave_baselines::widebeam::WideBeamConfig;
use mmwave_baselines::{BeamSpy, BeamStrategy, NrPeriodic, SingleBeamReactive, WideBeamStrategy};
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
use mmwave_sim::simulator::LinkSimulator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Profile, delays, candidates, picked, viable.
const OUTPUT_VECS: u64 = 5;

fn conference_link(seed: u64) -> LinkSimulator {
    let pose = Pose {
        pos: v2(0.9, 7.0),
        facing_deg: 180.0,
    };
    LinkSimulator::new(
        DynamicChannel::new(
            Scene::conference_room(FC_28GHZ),
            Trajectory::Static { pose },
            BlockageProcess::none(),
        ),
        ChannelSounder::paper_indoor(),
        ArrayGeometry::paper_8x8(),
        UeReceiver::Omni,
        Rng64::seed(seed),
    )
}

#[test]
fn warmed_scan_allocates_only_its_outputs() {
    let mut sim = conference_link(23);
    let mut scratch = SuperResScratch::default();
    // The first scan grows the observations, the transform buffers and
    // the simulator's snapshot caches to their high-water marks.
    let _ = beam_training(&mut sim, PAPER_SCAN_BEAMS, 3, 15.0, 8.0, &mut scratch);
    for round in 0..4 {
        let before = allocation_count();
        let r = beam_training(&mut sim, PAPER_SCAN_BEAMS, 3, 15.0, 8.0, &mut scratch);
        let delta = allocation_count() - before;
        assert_eq!(
            delta, OUTPUT_VECS,
            "scan {round}: allocated {delta} times, its outputs account for {OUTPUT_VECS}"
        );
        // Every output vector is non-empty, so each one allocated once.
        assert_eq!(r.probes_used, 64);
        assert!(!r.viable.is_empty(), "scan {round} found no path");
    }
}

/// An outage threshold no link reaches, so every maintenance probe fails.
const UNREACHABLE_SNR_DB: f64 = 200.0;

/// Ticks `strategy` over a fresh link until it is warm, then counts the
/// allocations of `ticks` more ticks and returns them with the scans the
/// strategy reports before and after (`scans` reads its counter).
fn rescan_allocations<S: BeamStrategy>(
    mut strategy: S,
    scans: impl Fn(&S) -> usize,
    ticks: usize,
) -> (u64, usize) {
    let mut sim = conference_link(29);
    for _ in 0..3 {
        let t = sim.now_s();
        strategy.on_tick(&mut sim, t);
    }
    let scans_before = scans(&strategy);
    let before = allocation_count();
    for _ in 0..ticks {
        let t = sim.now_s();
        strategy.on_tick(&mut sim, t);
    }
    let delta = allocation_count() - before;
    (delta, scans(&strategy) - scans_before)
}

#[test]
fn warmed_baseline_rescans_allocate_nothing() {
    // Each configuration rescans on every tick (BeamSpy on every second
    // one, switching along its stored profile in between).
    let reactive = SingleBeamReactive::new(ReactiveConfig {
        outage_snr_db: UNREACHABLE_SNR_DB,
        detection_ticks: 1,
        rescan_holdoff_ticks: 0,
        ..ReactiveConfig::default()
    });
    let beamspy = BeamSpy::new(BeamSpyConfig {
        outage_snr_db: UNREACHABLE_SNR_DB,
        fails_before_rescan: 2,
        ..BeamSpyConfig::default()
    });
    let widebeam = WideBeamStrategy::new(WideBeamConfig {
        outage_snr_db: UNREACHABLE_SNR_DB,
        fails_before_rescan: 1,
        ..WideBeamConfig::default()
    });
    let nr = NrPeriodic::new(NrPeriodicConfig { scan_period_s: 0.0 });
    let runs = [
        ("reactive", rescan_allocations(reactive, |s| s.rescans, 4)),
        ("beamspy", rescan_allocations(beamspy, |s| s.full_scans, 4)),
        ("widebeam", rescan_allocations(widebeam, |s| s.scans, 4)),
        ("nr-periodic", rescan_allocations(nr, |s| s.scans, 4)),
    ];
    for (name, (allocs, scans)) in runs {
        let want_scans = if name == "beamspy" { 2 } else { 4 };
        assert_eq!(scans, want_scans, "{name}: rescans in 4 warm ticks");
        assert_eq!(
            allocs, 0,
            "{name}: {scans} warm rescans allocated {allocs} times"
        );
    }
}
