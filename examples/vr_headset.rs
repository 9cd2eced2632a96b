//! VR headset scenario: fast rotation plus a passing blocker.
//!
//! ```text
//! cargo run --release --example vr_headset
//! ```
//!
//! The paper's motivating application (§1): a VR headset needs both high
//! throughput and no outages. This example plays a 1-second experiment with
//! 18°/s array rotation and a mid-run human blocker, comparing mmReliable's
//! proactive multi-beam against the single-beam reactive baseline.

use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmwave_baselines::single_reactive::ReactiveConfig;
use mmwave_baselines::strategy::{BeamStrategy, MmReliableStrategy};
use mmwave_baselines::SingleBeamReactive;
use mmwave_phy::mcs::McsTable;
use mmwave_sim::scenario;
use mmwave_sim::SimFrontEnd;

fn main() {
    let mcs = McsTable::nr_table();
    let seed = 7;
    let mut report = Vec::new();
    for which in ["mmReliable", "reactive"] {
        let sc = scenario::rotation_blockage(seed);
        let mut sim = sc.simulator(seed);
        let mut strategy: Box<dyn BeamStrategy> = match which {
            "mmReliable" => Box::new(MmReliableStrategy::new(MmReliableController::new(
                MmReliableConfig::paper_default(),
            ))),
            _ => Box::new(SingleBeamReactive::new(ReactiveConfig::default())),
        };
        let r = sim.run_with_warmup(
            strategy.as_mut(),
            sc.duration_s,
            sc.tick_period_s,
            sc.name,
            sc.warmup_s,
        );
        // Print a coarse SNR strip chart (one char per 20 ms).
        let series = r.snr_series();
        let mut strip = String::new();
        for chunk in series.chunks(160) {
            let mean: f64 = chunk.iter().map(|s| s.1).sum::<f64>() / chunk.len() as f64;
            strip.push(match mean {
                m if m < 6.0 => 'x', // outage
                m if m < 15.0 => '.',
                m if m < 22.0 => '-',
                _ => '=',
            });
        }
        println!("{which:>11}: |{strip}|");
        report.push((
            which,
            r.reliability(),
            r.mean_throughput_bps(&mcs) / 1e6,
            r.probing_overhead(),
        ));
    }
    println!("\n{:>11}  reliability  throughput  probing", "");
    for (name, rel, tput, ovh) in report {
        println!(
            "{name:>11}:   {rel:>8.3}   {tput:>6.0} Mbps   {:>5.1}%",
            100.0 * ovh
        );
    }
    println!("\n('x' = outage, '=' = full-rate; the blocker hits mid-run while the headset keeps rotating)");
}
