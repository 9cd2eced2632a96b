//! Regenerates every figure/table of the paper's evaluation as CSV.
//!
//! ```text
//! cargo run --release -p mmwave-bench --bin figures -- all
//! cargo run --release -p mmwave-bench --bin figures -- fig14 fig18b
//! cargo run --release -p mmwave-bench --bin figures -- fig18b --runs 100
//! ```
//!
//! Each figure prints its headline comparison (paper value vs measured)
//! on stdout and writes the full data series under `results/`.

mod endtoend;
mod micro;

use mmwave_bench::all_figure_ids;
use mmwave_bench::figures::parse_selection;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ids, runs) = match parse_selection(&args, &all_figure_ids(), 24) {
        Ok(sel) => sel,
        Err(e) => {
            eprintln!("figures: {e}\nusage: figures [all | <figure id> ...] [--runs N]");
            return ExitCode::from(2);
        }
    };
    for id in ids {
        println!("\n=== {id} ===");
        match id {
            "fig04a" => micro::fig04a(),
            "fig04b" => micro::fig04b(),
            "fig07" => micro::fig07(),
            "fig08" => micro::fig08(),
            "fig11a" => micro::fig11a(),
            "fig11b" => micro::fig11b(),
            "fig13d" => micro::fig13d(),
            "fig14" => micro::fig14(),
            "fig15a" => micro::fig15a(),
            "fig15b" => micro::fig15b(),
            "fig15c" => micro::fig15c(),
            "fig15d" => micro::fig15d(),
            "fig16" => endtoend::fig16(),
            "fig17a" => endtoend::fig17a(),
            "fig17b" => endtoend::fig17b(runs),
            "fig17c" => endtoend::fig17c(runs.min(12)),
            "fig18a" => endtoend::fig18a(runs),
            "fig18b" => endtoend::fig18b(runs),
            "fig18c" => endtoend::fig18c(runs),
            "fig18d" => endtoend::fig18d(),
            "fig19" => endtoend::fig19(runs.min(12)),
            other => unreachable!("{other} is in all_figure_ids but has no regenerator"),
        }
    }
    ExitCode::SUCCESS
}
