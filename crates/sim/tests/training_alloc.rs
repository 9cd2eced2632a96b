//! Counted allocation budget of the beam-training scan.
//!
//! Installs [`CountingAllocator`] as this binary's global allocator and
//! checks that a warmed [`beam_training`] over a [`LinkSimulator`]
//! allocates exactly its output vectors — the profile, the per-beam
//! delays, the peak-finding's candidate and picked lists, and the viable
//! paths — and nothing else: the 64 SSB probes fill the scratch's two
//! reused observations in place, and the coarse CIR delays run on its
//! warm transform buffers.
//!
//! The counter is per thread, so tests the harness runs concurrently in
//! this binary cannot pollute each other's measurement.

use mmreliable::superres::SuperResScratch;
use mmreliable::training::beam_training;
use mmwave_array::codebook::Codebook;
use mmwave_array::geometry::ArrayGeometry;
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

#[test]
fn warmed_scan_allocates_only_its_outputs() {
    let pose = Pose {
        pos: v2(0.9, 7.0),
        facing_deg: 180.0,
    };
    let mut sim = LinkSimulator::new(
        DynamicChannel::new(
            Scene::conference_room(FC_28GHZ),
            Trajectory::Static { pose },
            BlockageProcess::none(),
        ),
        ChannelSounder::paper_indoor(),
        ArrayGeometry::paper_8x8(),
        UeReceiver::Omni,
        Rng64::seed(23),
    );
    let cb = Codebook::paper_scan(&ArrayGeometry::paper_8x8());
    let mut scratch = SuperResScratch::default();
    // The first scan grows the observations, the transform buffers and
    // the simulator's snapshot caches to their high-water marks.
    let _ = beam_training(&mut sim, &cb, 3, 15.0, 8.0, &mut scratch);
    for round in 0..4 {
        let before = allocation_count();
        let r = beam_training(&mut sim, &cb, 3, 15.0, 8.0, &mut scratch);
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
