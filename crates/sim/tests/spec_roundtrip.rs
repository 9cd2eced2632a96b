//! Spec round-trip guarantees: every curated constructor, expressed as a
//! [`ScenarioSpec`], produces a bit-identical run fingerprint to the
//! constructor-built scenario, and spec strings parse back losslessly.

use mmwave_sim::campaign::{build_strategy, replay_cell};
use mmwave_sim::scenario::{self, Scenario};
use mmwave_sim::spec::{curated_worlds, FleetMixSpec, MixGroup};
use mmwave_sim::{FaultSchedule, ImpairmentConfig, ScenarioSpec, SimFrontEnd, WorldSpec};
use proptest::test_runner::TestRng;

const SEED: u64 = 7;
const STRATEGY: &str = "single-beam-reactive";

/// The constructor a curated world stands in for, called directly — the
/// pre-spec path specs must reproduce bit for bit.
fn constructor_scenario(world: &WorldSpec, seed: u64) -> Scenario {
    match world {
        WorldSpec::StaticWalker => scenario::static_walker(),
        WorldSpec::MobileBlockage => scenario::mobile_blockage(seed),
        WorldSpec::Translation1s => scenario::translation_1s(),
        WorldSpec::GnbRotation { rate_deg_s } => scenario::gnb_rotation(*rate_deg_s),
        WorldSpec::RotationBlockage => scenario::rotation_blockage(seed),
        WorldSpec::MixedMobility => scenario::mixed_mobility_blockage(seed),
        WorldSpec::Outdoor { dist_m } => scenario::outdoor(*dist_m, seed),
        WorldSpec::NaturalMotion => scenario::natural_motion(seed),
        WorldSpec::AppendixB { sixty_ghz } => scenario::appendix_b(*sixty_ghz),
        WorldSpec::Custom(_) => unreachable!("curated worlds are not custom"),
    }
}

fn run_digest(sc: &Scenario, seed: u64) -> u64 {
    let mut strategy = build_strategy(STRATEGY).expect("known strategy");
    sc.simulator(seed)
        .run_with_warmup(
            strategy.as_mut(),
            sc.duration_s,
            sc.tick_period_s,
            sc.name,
            sc.warmup_s,
        )
        .digest()
}

#[test]
fn every_curated_world_matches_its_constructor_bit_for_bit() {
    for world in curated_worlds() {
        let direct = run_digest(&constructor_scenario(&world, SEED), SEED);
        let spec = ScenarioSpec::single(world.clone(), STRATEGY, SEED);
        spec.validate().expect("curated spec validates");

        // Spec-built scenario, run directly.
        let built = spec.to_scenario().expect("curated spec builds");
        assert_eq!(
            run_digest(&built, SEED),
            direct,
            "spec-built scenario diverged from constructor for {}",
            world.id()
        );

        // Full journal path: the spec's cell id through the campaign
        // registry, exactly as `mmwave-admin diff --replay` would execute it.
        let (_, replayed) = replay_cell(&spec.journal_entry(0, 0.0, ""))
            .unwrap_or_else(|f| panic!("replay of {} failed: {}", world.id(), f.message));
        assert_eq!(
            replayed,
            direct,
            "journal replay diverged from constructor for {}",
            world.id()
        );
    }
}

#[test]
fn curated_spec_strings_parse_back_losslessly() {
    for world in curated_worlds() {
        let spec = ScenarioSpec::single(world, STRATEGY, SEED);
        let s = spec.spec_string();
        let back = ScenarioSpec::parse_spec(&s).expect("curated spec string parses");
        assert_eq!(back, spec, "round-trip mismatch for {s}");
    }
}

#[test]
fn random_specs_parse_back_losslessly() {
    // Property test over the fuzzer's own generator: canonical spec
    // strings are a lossless encoding of the spec value.
    use proptest::strategy::Strategy;
    let strategy = mmwave_sim::fuzz::arb_spec();
    let mut rng = TestRng::from_name("spec-roundtrip-prop");
    for _ in 0..128 {
        let spec = strategy.new_value(&mut rng);
        let s = spec.spec_string();
        let back = ScenarioSpec::parse_spec(&s)
            .unwrap_or_else(|e| panic!("generated spec string {s:?} failed to parse: {e}"));
        assert_eq!(back, spec, "round-trip mismatch for {s}");
    }
}

#[test]
fn faulted_and_fleet_specs_round_trip_through_journal_entries() {
    let mut fault = FaultSchedule::none();
    fault.seed = 9;
    fault.stale_prob = 0.25;
    let mut spec = ScenarioSpec::single(WorldSpec::StaticWalker, "mmreliable", 41);
    spec.fault = fault.clone();
    spec.impairment = ImpairmentConfig::mild(3);
    let entry = spec.journal_entry(0xdead_beef, 0.5, "note");
    let parsed =
        mmwave_sim::campaign::JournalEntry::parse(&entry.to_json()).expect("journal line parses");
    assert_eq!(
        ScenarioSpec::parse_spec(&parsed.key().id()).expect("key parses"),
        spec
    );

    let fleet = ScenarioSpec {
        fleet: Some(FleetMixSpec {
            n_ues: 3,
            groups: vec![MixGroup {
                fault,
                impairment: ImpairmentConfig::mild(3),
            }],
        }),
        ..ScenarioSpec::single(WorldSpec::StaticWalker, "mmreliable", 41)
    };
    fleet.validate().expect("fleet spec validates");
    let id = fleet.spec_string();
    assert_eq!(
        ScenarioSpec::parse_spec(&id).expect("fleet spec id parses"),
        fleet,
        "fleet round-trip mismatch for {id}"
    );
}
