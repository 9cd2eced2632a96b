//! V2X outdoor scenario: long links beside a building, with blockers.
//!
//! ```text
//! cargo run --release --example v2x_outdoor
//! ```
//!
//! Vehicle-to-infrastructure links (the paper's other motivating
//! application) run 30–80 m with pedestrians and vehicles crossing the LOS.
//! This example sweeps link distance on the outdoor street scene (100 MHz
//! carrier, tinted-glass building facade as the reflector) and reports
//! reliability and throughput for mmReliable vs the reactive baseline.

use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmwave_baselines::single_reactive::ReactiveConfig;
use mmwave_baselines::strategy::{BeamStrategy, MmReliableStrategy};
use mmwave_baselines::SingleBeamReactive;
use mmwave_phy::mcs::McsTable;
use mmwave_sim::runner::{run_many, Aggregate};
use mmwave_sim::scenario;

fn main() {
    let mcs = McsTable::nr_table();
    let runs = 6;
    println!(
        "{:>6}  {:>12}  {:>11}  {:>11}",
        "dist", "strategy", "reliability", "throughput"
    );
    for dist in [30.0, 50.0, 80.0] {
        for which in ["mmReliable", "reactive"] {
            let factory: fn() -> Box<dyn BeamStrategy + Send> = match which {
                "mmReliable" => || {
                    Box::new(MmReliableStrategy::new(MmReliableController::new(
                        MmReliableConfig::paper_default(),
                    )))
                },
                _ => || Box::new(SingleBeamReactive::new(ReactiveConfig::default())),
            };
            let results = run_many(
                runs,
                900 + dist as u64,
                runs,
                &format!("outdoor-{dist}m"),
                which,
                move |seed| scenario::outdoor(dist, seed),
                factory,
            );
            let agg = Aggregate::from_runs(&results, &mcs).expect("non-empty run set");
            println!(
                "{:>4} m  {:>12}  {:>11.3}  {:>7.0} Mbps",
                dist,
                which,
                agg.mean_reliability(),
                agg.mean_throughput_bps() / 1e6
            );
        }
    }
    println!("\n(100 MHz outdoor carrier; the building facade reflection keeps mmReliable alive through LOS blockage)");
}
