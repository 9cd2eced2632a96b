//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! ```text
//! cargo run --release -p mmwave-bench --bin ablations -- [quantizer|beams|cadence|latency|impairments|all] [--runs N]
//! ```
//!
//! - `quantizer` — ideal vs 6-bit (the paper's array) vs 2-bit/on-off
//!   (commercial 802.11ad) hardware: §5.1 claims coherent multi-beams
//!   survive even 2-bit phase control.
//! - `beams` — max multi-beam size K = 1/2/3: where the diminishing
//!   returns land (§6.1: 3 beams ≈ 92% of oracle).
//! - `cadence` — CSI-RS maintenance period 5–40 ms: how much probing the
//!   reliability actually needs.
//! - `latency` — the reactive baseline's beam-failure-recovery latency
//!   swept 0–300 ms: the knob that controls the Fig. 18 reliability gap
//!   (EXPERIMENTS.md note 3).
//! - `impairments` — hardware-impairment severity (none/mild/moderate/
//!   severe: phase noise, PA compression, array mismatch + coupling, ADC,
//!   LO leakage) × strategy: does multi-beam reliability survive a real
//!   front end? (DESIGN.md §12)

use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmwave_array::quantize::Quantizer;
use mmwave_baselines::single_reactive::ReactiveConfig;
use mmwave_baselines::strategy::{BeamStrategy, MmReliableStrategy};
use mmwave_baselines::widebeam::{WideBeamConfig, WideBeamStrategy};
use mmwave_baselines::SingleBeamReactive;
use mmwave_bench::figures::{parse_selection, write_csv};
use mmwave_phy::mcs::McsTable;
use mmwave_sim::runner::{run_many, Aggregate};
use mmwave_sim::scenario;
use mmwave_sim::ImpairmentConfig;
use std::process::ExitCode;

fn mm_with(cfg: MmReliableConfig) -> impl Fn() -> Box<dyn BeamStrategy + Send> + Send + Sync {
    move || {
        Box::new(MmReliableStrategy::new(MmReliableController::new(
            cfg.clone(),
        )))
    }
}

fn quantizer_study(runs: usize, mcs: &McsTable) {
    println!("--- quantizer ablation (mixed mobility + blockage) ---");
    let mut csv = String::from("quantizer,rel_mean,tput_mbps,product_mbps\n");
    for (name, q) in [
        ("ideal", Quantizer::ideal()),
        ("6bit_paper", Quantizer::paper_array()),
        ("2bit_80211ad", Quantizer::commercial_80211ad()),
    ] {
        let mut cfg = MmReliableConfig::paper_default();
        cfg.quantizer = q;
        let results = run_many(
            runs,
            9100,
            8,
            "mixed-mobility-blockage",
            &format!("mmreliable-quantizer-{name}"),
            scenario::mixed_mobility_blockage,
            mm_with(cfg),
        );
        let agg = Aggregate::from_runs(&results, mcs).expect("non-empty batch");
        csv.push_str(&format!(
            "{name},{:.4},{:.1},{:.1}\n",
            agg.mean_reliability(),
            agg.mean_throughput_bps() / 1e6,
            agg.mean_product_bps() / 1e6
        ));
        println!(
            "{name:>14}: reliability {:.3}, throughput {:.0} Mbps",
            agg.mean_reliability(),
            agg.mean_throughput_bps() / 1e6
        );
    }
    write_csv("ablation_quantizer.csv", &csv).unwrap();
    println!("(§5.1: multi-beams remain coherent even on 2-bit commercial hardware)");
}

fn beams_study(runs: usize, mcs: &McsTable) {
    println!("--- multi-beam size ablation (mixed mobility + blockage) ---");
    let mut csv = String::from("max_beams,rel_mean,tput_mbps,product_mbps\n");
    for k in [1usize, 2, 3] {
        let mut cfg = MmReliableConfig::paper_default();
        cfg.max_beams = k;
        let results = run_many(
            runs,
            9200,
            8,
            "mixed-mobility-blockage",
            &format!("mmreliable-k{k}"),
            scenario::mixed_mobility_blockage,
            mm_with(cfg),
        );
        let agg = Aggregate::from_runs(&results, mcs).expect("non-empty batch");
        csv.push_str(&format!(
            "{k},{:.4},{:.1},{:.1}\n",
            agg.mean_reliability(),
            agg.mean_throughput_bps() / 1e6,
            agg.mean_product_bps() / 1e6
        ));
        println!(
            "K = {k}: reliability {:.3}, throughput {:.0} Mbps, product {:.0} Mbps",
            agg.mean_reliability(),
            agg.mean_throughput_bps() / 1e6,
            agg.mean_product_bps() / 1e6
        );
    }
    write_csv("ablation_beams.csv", &csv).unwrap();
    println!("(K = 1 is a tracked single beam: blockage kills it; K ≥ 2 buys the reliability)");
}

fn cadence_study(runs: usize, mcs: &McsTable) {
    println!("--- CSI-RS maintenance-cadence ablation (translation + blockage) ---");
    let mut csv = String::from("tick_ms,rel_mean,tput_mbps,overhead\n");
    for tick_ms in [5.0, 10.0, 20.0, 40.0] {
        let results = run_many(
            runs,
            9300,
            8,
            &format!("mobile-blockage-tick{tick_ms}ms"),
            "mmreliable",
            move |seed| {
                let mut sc = scenario::mobile_blockage(seed);
                sc.tick_period_s = tick_ms * 1e-3;
                sc
            },
            mm_with(MmReliableConfig::paper_default()),
        );
        let agg = Aggregate::from_runs(&results, mcs).expect("non-empty batch");
        csv.push_str(&format!(
            "{tick_ms},{:.4},{:.1},{:.4}\n",
            agg.mean_reliability(),
            agg.mean_throughput_bps() / 1e6,
            agg.mean_overhead()
        ));
        println!(
            "tick {tick_ms:>4} ms: reliability {:.3}, throughput {:.0} Mbps, probing {:.2}%",
            agg.mean_reliability(),
            agg.mean_throughput_bps() / 1e6,
            100.0 * agg.mean_overhead()
        );
    }
    write_csv("ablation_cadence.csv", &csv).unwrap();
    println!("(at the paper's mobility rates, 20–40 ms maintenance suffices and probing interruptions dominate; the paper's 0.5 ms floor matters only for far faster dynamics)");
}

fn latency_study(runs: usize, mcs: &McsTable) {
    println!("--- reactive recovery-latency sweep (mixed mobility + blockage) ---");
    let mut csv = String::from("recovery_ms,rel_mean,tput_mbps\n");
    for rec_ms in [0.0, 50.0, 100.0, 200.0, 300.0] {
        let factory = move || -> Box<dyn BeamStrategy + Send> {
            let cfg = ReactiveConfig {
                recovery_latency_s: rec_ms * 1e-3,
                ..ReactiveConfig::default()
            };
            Box::new(SingleBeamReactive::new(cfg))
        };
        let results = run_many(
            runs,
            9400,
            8,
            "mixed-mobility-blockage",
            &format!("single-beam-reactive-{rec_ms}ms"),
            scenario::mixed_mobility_blockage,
            factory,
        );
        let agg = Aggregate::from_runs(&results, mcs).expect("non-empty batch");
        csv.push_str(&format!(
            "{rec_ms},{:.4},{:.1}\n",
            agg.mean_reliability(),
            agg.mean_throughput_bps() / 1e6
        ));
        println!(
            "recovery {rec_ms:>5} ms: reliability {:.3} (the paper's 0.65 corresponds to slow testbed recovery)",
            agg.mean_reliability()
        );
    }
    write_csv("ablation_reactive_latency.csv", &csv).unwrap();
}

fn impairments_study(runs: usize, mcs: &McsTable) {
    println!("--- hardware-impairment severity ablation (mixed mobility + blockage) ---");
    let mut csv = String::from("severity,strategy,rel_mean,tput_mbps,product_mbps\n");
    for severity in ["none", "mild", "moderate", "severe"] {
        for strat in ["mmreliable", "single-beam-reactive", "wide-beam"] {
            let factory: Box<dyn Fn() -> Box<dyn BeamStrategy + Send> + Send + Sync> = match strat {
                "mmreliable" => Box::new(mm_with(MmReliableConfig::paper_default())),
                "single-beam-reactive" => Box::new(|| {
                    Box::new(SingleBeamReactive::new(ReactiveConfig::default()))
                        as Box<dyn BeamStrategy + Send>
                }),
                _ => Box::new(|| {
                    Box::new(WideBeamStrategy::new(WideBeamConfig::default()))
                        as Box<dyn BeamStrategy + Send>
                }),
            };
            let results = run_many(
                runs,
                9500,
                8,
                &format!("mixed-mobility-blockage-hw-{severity}"),
                strat,
                move |seed| {
                    // The impairment seed rides the scenario seed so every
                    // run draws its own mismatch/phase-noise realization.
                    let cfg = ImpairmentConfig::preset(severity, seed).expect("known severity");
                    scenario::mixed_mobility_blockage(seed)
                        .with_impairments(cfg)
                        .expect("valid impairment preset")
                },
                factory,
            );
            let agg = Aggregate::from_runs(&results, mcs).expect("non-empty batch");
            csv.push_str(&format!(
                "{severity},{strat},{:.4},{:.1},{:.1}\n",
                agg.mean_reliability(),
                agg.mean_throughput_bps() / 1e6,
                agg.mean_product_bps() / 1e6
            ));
            println!(
                "{severity:>8} × {strat:>20}: reliability {:.3}, throughput {:.0} Mbps",
                agg.mean_reliability(),
                agg.mean_throughput_bps() / 1e6
            );
        }
    }
    write_csv("ablation_impairments.csv", &csv).unwrap();
    println!("(multi-beam tapers are non-constant-modulus: PA compression taxes mmReliable hardest, but redundancy still wins on reliability)");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = ["quantizer", "beams", "cadence", "latency", "impairments"];
    let (which, runs) = match parse_selection(&args, &known, 16) {
        Ok(sel) => sel,
        Err(e) => {
            eprintln!(
                "ablations: {e}\nusage: ablations [all | {} ...] [--runs N]",
                known.join(" | ")
            );
            return ExitCode::from(2);
        }
    };
    let mcs = McsTable::nr_table();
    for w in which {
        match w {
            "quantizer" => quantizer_study(runs, &mcs),
            "beams" => beams_study(runs, &mcs),
            "cadence" => cadence_study(runs, &mcs),
            "latency" => latency_study(runs, &mcs),
            "impairments" => impairments_study(runs, &mcs),
            other => unreachable!("{other} is a known ablation without a study"),
        }
        println!();
    }
    ExitCode::SUCCESS
}
