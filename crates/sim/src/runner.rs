//! Seeded multi-run experiment sweeps.
//!
//! The paper's end-to-end numbers aggregate ~100 repetitions per
//! configuration (§6.2). [`run_many`] is the one sweep entry: it plays
//! one strategy family over many seeded scenario instances as cells of a
//! supervised campaign ([`crate::campaign`]), and [`Aggregate`] reduces the
//! batch to reliability, throughput, and the throughput-reliability
//! product.

use crate::campaign::{closure_jobs, run_campaign, CampaignConfig, CellStatus};
use crate::metrics::RunResult;
use crate::scenario::Scenario;
use mmwave_baselines::strategy::BeamStrategy;
use mmwave_dsp::stats;
use mmwave_phy::mcs::McsTable;
use std::time::Duration;

/// Aggregated statistics over a batch of runs.
#[derive(Clone, Debug)]
pub struct Aggregate {
    /// Strategy name.
    pub strategy: String,
    /// Scenario name.
    pub scenario: String,
    /// Per-run reliability values.
    pub reliability: Vec<f64>,
    /// Per-run mean throughput, bits/s.
    pub throughput_bps: Vec<f64>,
    /// Per-run throughput-reliability product, bits/s.
    pub product_bps: Vec<f64>,
    /// Per-run probing overhead fraction.
    pub overhead: Vec<f64>,
}

impl Aggregate {
    /// Builds the aggregate from raw run results. Returns `None` for an
    /// empty batch — the old behaviour silently produced an aggregate with
    /// empty strategy/scenario names and NaN statistics, which then leaked
    /// into CSV output as blank rows.
    pub fn from_runs(runs: &[RunResult], mcs: &McsTable) -> Option<Self> {
        let first = runs.first()?;
        Some(Self {
            strategy: first.strategy.clone(),
            scenario: first.scenario.clone(),
            reliability: runs.iter().map(|r| r.reliability()).collect(),
            throughput_bps: runs.iter().map(|r| r.mean_throughput_bps(mcs)).collect(),
            product_bps: runs
                .iter()
                .map(|r| r.throughput_reliability_product(mcs))
                .collect(),
            overhead: runs.iter().map(|r| r.probing_overhead()).collect(),
        })
    }

    /// Median reliability.
    pub fn median_reliability(&self) -> f64 {
        stats::median(&self.reliability)
    }

    /// Mean reliability.
    pub fn mean_reliability(&self) -> f64 {
        stats::mean(&self.reliability)
    }

    /// Mean throughput, bits/s.
    pub fn mean_throughput_bps(&self) -> f64 {
        stats::mean(&self.throughput_bps)
    }

    /// Mean throughput-reliability product, bits/s.
    pub fn mean_product_bps(&self) -> f64 {
        stats::mean(&self.product_bps)
    }

    /// Mean probing overhead fraction.
    pub fn mean_overhead(&self) -> f64 {
        stats::mean(&self.overhead)
    }
}

/// Plays `n_runs` seeded cells (`base_seed + run_idx`) of one
/// (scenario family × strategy) sweep on `threads` campaign workers (`0` =
/// every available core) and returns the run records in seed order.
///
/// `scenario_fn(seed)` builds the (possibly seed-dependent) scenario;
/// `strategy_fn()` builds a fresh strategy per run. The labels name the
/// cells (`scenario//strategy//seed//none`, [`CellKey::id`]) in the
/// failure report. Results are bit-identical to a serial loop of
/// `scenario_fn(seed).simulator(seed).run_with_warmup(..)` and do not
/// depend on `threads`.
///
/// Each run has a 600 s wall-clock watchdog and one retry. Panics, naming
/// every cell that still failed, if any did: a figure has no use for a
/// partial batch.
///
/// [`CellKey::id`]: crate::campaign::CellKey::id
pub fn run_many<S, F>(
    n_runs: usize,
    base_seed: u64,
    threads: usize,
    scenario_label: &str,
    strategy_label: &str,
    scenario_fn: S,
    strategy_fn: F,
) -> Vec<RunResult>
where
    S: Fn(u64) -> Scenario + Send + Sync + 'static,
    F: Fn() -> Box<dyn BeamStrategy + Send> + Send + Sync + 'static,
{
    let jobs = closure_jobs(
        n_runs,
        base_seed,
        scenario_label,
        strategy_label,
        scenario_fn,
        strategy_fn,
    );
    let cfg = CampaignConfig {
        threads,
        // An honest run takes seconds; one that runs for minutes is hung.
        run_deadline: Some(Duration::from_secs(600)),
        max_attempts: 2,
        ..CampaignConfig::default()
    };
    let report = run_campaign(&jobs, &cfg).expect("closure cells have distinct keys");
    let failures: Vec<String> = report
        .failures()
        .iter()
        .map(|(key, f)| format!("{}: {}: {}", key.id(), f.kind.as_str(), f.message))
        .collect();
    if !failures.is_empty() {
        panic!(
            "{} of {n_runs} runs failed terminally:\n{}",
            failures.len(),
            failures.join("\n")
        );
    }
    report
        .outcomes
        .into_iter()
        .filter_map(|o| match o.status {
            CellStatus::Completed { result, .. } => Some(*result),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use mmwave_baselines::single_reactive::{ReactiveConfig, SingleBeamReactive};

    fn reactive() -> Box<dyn BeamStrategy + Send> {
        Box::new(SingleBeamReactive::new(ReactiveConfig::default()))
    }

    #[test]
    fn run_many_produces_all_runs() {
        let runs = run_many(
            4,
            100,
            2,
            "mobile-blockage",
            "reactive",
            scenario::mobile_blockage,
            reactive,
        );
        assert_eq!(runs.len(), 4);
        for r in &runs {
            assert!((r.duration_s() - 1.0).abs() < 5e-3);
            assert_eq!(r.strategy, "single-beam reactive");
        }
    }

    #[test]
    fn aggregate_statistics() {
        let mcs = McsTable::nr_table();
        let runs = run_many(
            3,
            7,
            3,
            "mobile-blockage",
            "reactive",
            scenario::mobile_blockage,
            reactive,
        );
        let agg = Aggregate::from_runs(&runs, &mcs).expect("non-empty batch");
        assert_eq!(agg.reliability.len(), 3);
        assert!(agg.mean_reliability() >= 0.0 && agg.mean_reliability() <= 1.0);
    }

    #[test]
    fn empty_batch_aggregates_to_none() {
        assert!(Aggregate::from_runs(&[], &McsTable::nr_table()).is_none());
    }

    #[test]
    fn run_many_names_the_failed_cell_and_runs_the_rest() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// Reactive until 0.5 s of simulated time, then panics: only the
        /// seed whose scenario runs that long fails, on every attempt.
        struct PanicLate(SingleBeamReactive);
        impl BeamStrategy for PanicLate {
            fn name(&self) -> &'static str {
                "panic-late"
            }
            fn on_tick(&mut self, fe: &mut dyn mmreliable::frontend::LinkFrontEnd, t_s: f64) {
                if t_s >= 0.5 {
                    panic!("injected test panic");
                }
                self.0.on_tick(fe, t_s);
            }
            fn weights(&self) -> mmwave_array::weights::BeamWeights {
                self.0.weights()
            }
        }

        const BAD_SEED: u64 = 51;
        let built = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&built);
        let sweep = std::panic::catch_unwind(|| {
            run_many(
                3,
                50,
                1,
                "short-blockage",
                "panic-late",
                |seed| {
                    let mut sc = scenario::mobile_blockage(seed);
                    sc.duration_s = if seed == BAD_SEED { 1.0 } else { 0.2 };
                    sc
                },
                move || -> Box<dyn BeamStrategy + Send> {
                    counter.fetch_add(1, Ordering::SeqCst);
                    Box::new(PanicLate(
                        SingleBeamReactive::new(ReactiveConfig::default()),
                    ))
                },
            )
        });
        let payload = sweep.expect_err("a failed cell must fail the sweep");
        let msg = payload
            .downcast_ref::<String>()
            .expect("run_many panics with a formatted message");
        assert!(msg.starts_with("1 of 3 runs failed"), "{msg}");
        assert!(
            msg.contains("short-blockage//panic-late//51//"),
            "the failed cell is named: {msg}"
        );
        assert!(msg.contains("injected test panic"), "{msg}");
        // Two attempts of the bad cell plus one run of each other cell:
        // the sweep went on past the failure.
        assert_eq!(built.load(Ordering::SeqCst), 4);
    }
}
