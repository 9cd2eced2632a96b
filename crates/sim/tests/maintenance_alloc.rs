//! Counted allocation budgets of mmReliable beam maintenance.
//!
//! Installs [`CountingAllocator`] as this binary's global allocator and
//! counts what warmed maintenance rounds and re-establishments allocate
//! on a conference-room link with K = 3 beams. Every probe of a round goes through
//! `probe_into` into the controller's reused observations, its weights are
//! synthesised and quantized in place, and its per-beam fits write into
//! estimates the controller owns, so what remains is what the returned
//! [`RoundReport`] owns. A re-establishment steers each training beam in
//! place, so what remains is the new link state it builds.
//!
//! The counter is per thread, so tests the harness runs concurrently in
//! this binary cannot pollute each other's measurement.

use mmreliable::config::MmReliableConfig;
use mmreliable::controller::{ControllerAction, MmReliableController, RoundReport};
use mmreliable::frontend::SnapshotFrontEnd;
use mmwave_array::geometry::ArrayGeometry;
use mmwave_baselines::strategy::{BeamStrategy, MmReliableStrategy};
use mmwave_channel::channel::{GeometricChannel, UeReceiver};
use mmwave_channel::environment::Scene;
use mmwave_channel::geom2d::v2;
use mmwave_dsp::count_alloc::{allocation_count, CountingAllocator};
use mmwave_dsp::rng::Rng64;
use mmwave_dsp::units::FC_28GHZ;
use mmwave_phy::chanest::ChannelSounder;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A quiet round (one probe, one fit, no action): the report's
/// `per_beam_db`.
const QUIET_ROUND_ALLOCS: u64 = 1;

/// A strategy tick over a quiet round: the round's report; the cached data
/// weights are rewritten in place.
const STRATEGY_TICK_ALLOCS: u64 = 1;

/// A realignment round (live probe, hypothesis probe, `refresh_constructive`
/// with its 2 probes per refreshed beam, re-baseline probe, three fits):
/// the report's `per_beam_db` and its `actions`. The hypothesis shifts the
/// live multi-beam in place, and `refresh_constructive` updates it in
/// place, so no `MultiBeam` is cloned.
const REALIGN_ROUND_ALLOCS: u64 = 2;

/// A readmission round (live probe, three recovery probes,
/// `refresh_constructive`, re-baseline probe, two fits): the report's
/// `per_beam_db` and its `actions`.
const RECOVERY_ROUND_ALLOCS: u64 = 2;

/// A warmed re-establishment, all of it what the new link state, the
/// lifecycle log or the caller owns: the training's profile, delays,
/// candidate and picked lists and viable paths (5); the components and the
/// relative delays, each allocated with the reference and grown once for
/// the two extra beams (4); the angle list, the per-beam baselines, the
/// tracker list and its three histories, the detector list and the saved
/// amplitudes (8); and the returned actions (1). The 64 scan beams are
/// steered into the scratch's one reused buffer, so none of them
/// allocates, and the lifecycle log keeps its capacity across drains.
const ESTABLISH_ALLOCS: u64 = 18;

/// The static conference-room link of the controller's unit tests: an
/// off-centre UE, so LOS and both glass-wall bounces are resolvable.
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

/// An established three-beam controller after `warm` quiet rounds.
fn warmed(fe: &mut SnapshotFrontEnd, warm: usize) -> MmReliableController {
    let mut ctl = MmReliableController::new(MmReliableConfig::paper_default());
    ctl.establish(fe);
    assert_eq!(ctl.multibeam().expect("established").num_beams(), 3);
    for _ in 0..warm {
        ctl.maintenance_round(fe);
    }
    ctl
}

/// Runs one round and returns its report with the allocations it made.
fn counted_round(ctl: &mut MmReliableController, fe: &mut SnapshotFrontEnd) -> (RoundReport, u64) {
    let before = allocation_count();
    let report = ctl.maintenance_round(fe);
    (report, allocation_count() - before)
}

#[test]
fn warmed_establish_allocates_only_the_new_link_state() {
    let mut fe = room_frontend(3);
    // The first establish grows the scan's buffers and both of the fit's
    // estimates; a round then swaps the two, so the first re-establishment
    // fits into the one the round did not use.
    let mut ctl = warmed(&mut fe, 1);
    let mut drained = Vec::new();
    for round in 0..4 {
        // The simulator drains the log every tick, into a buffer it owns.
        drained.clear();
        ctl.drain_transitions_into(&mut drained);
        let before = allocation_count();
        let actions = ctl.establish(&mut fe);
        let allocs = allocation_count() - before;
        assert!(
            matches!(&actions[..], [ControllerAction::Established(a)] if a.len() == 3),
            "establish {round}: {actions:?}"
        );
        assert_eq!(
            allocs, ESTABLISH_ALLOCS,
            "establish {round} allocated {allocs} times"
        );
    }
}

#[test]
fn quiet_rounds_after_a_cold_establish_allocate_only_their_reports() {
    // A round fits its live probe into one estimate and swaps it with the
    // other; the establishment sizes both, so no round grows either.
    let mut fe = room_frontend(3);
    let mut ctl = warmed(&mut fe, 0);
    for round in 0..4 {
        let (r, allocs) = counted_round(&mut ctl, &mut fe);
        assert!(r.actions.is_empty(), "round {round}: {:?}", r.actions);
        assert_eq!(
            allocs, QUIET_ROUND_ALLOCS,
            "quiet round {round} after a cold establish allocated {allocs} times"
        );
    }
}

#[test]
fn warmed_quiet_round_allocates_only_its_report() {
    let mut fe = room_frontend(3);
    let mut ctl = warmed(&mut fe, 4);
    for round in 0..8 {
        let (r, allocs) = counted_round(&mut ctl, &mut fe);
        assert!(r.actions.is_empty(), "round {round}: {:?}", r.actions);
        assert_eq!(r.probes, 1);
        assert_eq!(r.per_beam_db.len(), 3);
        assert_eq!(
            allocs, QUIET_ROUND_ALLOCS,
            "quiet round {round} allocated {allocs} times"
        );
    }
}

#[test]
fn warmed_strategy_tick_allocates_only_the_round_report() {
    let mut fe = room_frontend(3);
    let mut s =
        MmReliableStrategy::new(MmReliableController::new(MmReliableConfig::paper_default()));
    // The first tick establishes; the next ones warm the round's buffers.
    for _ in 0..5 {
        s.on_tick(&mut fe, 0.0);
    }
    for tick in 0..8 {
        let before = allocation_count();
        s.on_tick(&mut fe, 0.0);
        let allocs = allocation_count() - before;
        assert_eq!(
            allocs, STRATEGY_TICK_ALLOCS,
            "strategy tick {tick} allocated {allocs} times"
        );
    }
    let w = s.weights();
    assert!((w.norm() - 1.0).abs() < 1e-9);
}

#[test]
fn realignment_round_allocates_its_report_and_actions() {
    let mut fe = room_frontend(6);
    let mut ctl = warmed(&mut fe, 1);
    // Every path rotates by +6°: the beams drift off their paths.
    for p in fe.channel.paths.iter_mut() {
        p.aod_deg += 6.0;
    }
    let mut realigned = 0;
    for _ in 0..8 {
        let (r, allocs) = counted_round(&mut ctl, &mut fe);
        if r.actions
            .iter()
            .any(|a| matches!(a, ControllerAction::Realigned { .. }))
        {
            realigned += 1;
            assert!(r.probes >= 3, "hypothesis and re-baseline probes");
            assert_eq!(
                allocs, REALIGN_ROUND_ALLOCS,
                "realignment round allocated {allocs} times: {:?}",
                r.actions
            );
        }
    }
    assert!(realigned > 0, "no round realigned");
}

#[test]
fn readmission_round_allocates_its_report_and_actions() {
    let mut fe = room_frontend(5);
    let mut ctl = warmed(&mut fe, 1);
    fe.channel.paths[0].blockage_db = 30.0;
    let (r, _) = counted_round(&mut ctl, &mut fe);
    assert!(r.actions.contains(&ControllerAction::BeamBlocked(0)));
    // The blocker walks away; a periodic recovery check readmits the beam.
    fe.channel.paths[0].blockage_db = 0.0;
    let mut readmitted = false;
    for _ in 0..8 {
        let (r, allocs) = counted_round(&mut ctl, &mut fe);
        if r.actions.contains(&ControllerAction::BeamRecovered(0)) {
            readmitted = true;
            assert_eq!(
                allocs, RECOVERY_ROUND_ALLOCS,
                "readmission round allocated {allocs} times: {:?}",
                r.actions
            );
            break;
        }
    }
    assert!(readmitted, "beam 0 was never readmitted");
}
