//! Steady fleet cost per UE-slot, one mix group at a time.
//!
//! The `fleet-impaired` benchmark deals four mix groups round-robin over a
//! 32-UE `static-walker` reactive fleet: clean; probe loss + stale CSI +
//! SNR glitches (`lossy`); `moderate` impairments; and element failures
//! plus gain drift over `mild` impairments (`aging+mild`). This example
//! builds the same fleet with every UE in one group (and two partial
//! groups, aging alone and failed elements over `mild`), steps it pass by
//! pass on one thread, and prints the steady-pass time per measured data
//! slot, the median of `reps` fleets per group.
//!
//! ```text
//! cargo run --release -p mmwave-bench --example fleet_mix_split -- [reps] [seed]
//! ```

use mmwave_channel::SharedSceneCache;
use mmwave_sim::campaign::build_scenario;
use mmwave_sim::fleet::{FleetConfig, FleetShard};
use mmwave_sim::{FaultSchedule, ImpairmentConfig, MixGroup, ProbeLossWindow};
use std::sync::Arc;
use std::time::Instant;

const UES: u32 = 32;

/// The benchmark's four groups plus the two halves of the last one.
fn groups(base: u64) -> Vec<(&'static str, MixGroup)> {
    let lossy = FaultSchedule {
        seed: base ^ 0x5eed_0001,
        probe_loss: vec![ProbeLossWindow {
            start_s: 0.2,
            end_s: 0.8,
            loss_prob: 0.3,
        }],
        stale_prob: 0.1,
        snr_glitch: Some(mmwave_sim::faults::SnrGlitch {
            prob: 0.1,
            mag_db: 6.0,
        }),
        ..FaultSchedule::none()
    };
    let failed = FaultSchedule {
        seed: base ^ 0x5eed_0003,
        failed_elements: vec![3, 17, 42],
        ..FaultSchedule::none()
    };
    let aging = FaultSchedule {
        gain_drift_db: 1.5,
        gain_drift_period_s: 0.5,
        ..failed.clone()
    };
    let mild = ImpairmentConfig::mild(base ^ 0x5eed_0004);
    let group = |fault: FaultSchedule, impairment: ImpairmentConfig| MixGroup { fault, impairment };
    vec![
        (
            "clean",
            group(FaultSchedule::none(), ImpairmentConfig::none()),
        ),
        ("lossy", group(lossy, ImpairmentConfig::none())),
        (
            "moderate",
            group(
                FaultSchedule::none(),
                ImpairmentConfig::moderate(base ^ 0x5eed_0002),
            ),
        ),
        ("aging+mild", group(aging.clone(), mild.clone())),
        ("aging", group(aging, ImpairmentConfig::none())),
        ("failed+mild", group(failed, mild)),
    ]
}

/// Steady-pass nanoseconds and measured data slots of one fleet.
fn steady_cost(cfg: &FleetConfig) -> (u64, u64) {
    let sc = build_scenario(&cfg.scenario, cfg.seed).expect("registry scenario");
    let cache = Arc::new(SharedSceneCache::build(&sc.dynamic.scene));
    let ues: Vec<u32> = (0..cfg.n_ues).collect();
    let mut shard = FleetShard::new(cfg, &ues, Some(&cache)).expect("valid fleet");
    let warm_passes = (sc.warmup_s / cfg.pass_period_s).ceil() as u64;
    let mut done = false;
    while !done && shard.passes() < warm_passes {
        done = shard.step_pass();
    }
    let t0 = Instant::now();
    while !done {
        done = shard.step_pass();
    }
    let ns = t0.elapsed().as_nanos() as u64;
    let boundary_s = warm_passes as f64 * cfg.pass_period_s;
    let slots = shard
        .finish()
        .results
        .iter()
        .flat_map(|(_, r)| &r.samples)
        .filter(|s| !s.probing && s.t_s >= boundary_s)
        .count() as u64;
    (ns, slots)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let reps: u64 = args.next().map_or(3, |a| a.parse().expect("reps"));
    let seed: u64 = args.next().map_or(1, |a| a.parse().expect("seed"));
    println!("group,reps,ns_per_ue_slot_median,ns_per_ue_slot_min,ns_per_ue_slot_max");
    for (g, (name, _)) in groups(0).into_iter().enumerate() {
        let mut per_slot: Vec<f64> = (0..reps)
            .map(|r| {
                let fleet_seed = seed * 1000 + r * 100;
                let mut cfg =
                    FleetConfig::new("static-walker", "single-beam-reactive", UES, fleet_seed);
                cfg.threads = 1;
                cfg.shards = 1;
                cfg.mix = vec![groups(fleet_seed).swap_remove(g).1];
                let (ns, slots) = steady_cost(&cfg);
                ns as f64 / slots as f64
            })
            .collect();
        per_slot.sort_by(f64::total_cmp);
        println!(
            "{name},{reps},{:.0},{:.0},{:.0}",
            per_slot[per_slot.len() / 2],
            per_slot[0],
            per_slot[per_slot.len() - 1]
        );
    }
}
