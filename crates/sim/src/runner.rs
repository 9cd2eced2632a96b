//! Seeded multi-run experiment sweeps.
//!
//! The paper's end-to-end numbers aggregate ~100 repetitions per
//! configuration (§6.2). [`run_many`] plays one strategy family over many
//! seeded scenario instances across OS threads and aggregates reliability,
//! throughput, and the throughput-reliability product.

use crate::metrics::RunResult;
use crate::scenario::Scenario;
use crate::simulator::SimFrontEnd;
use mmwave_baselines::strategy::BeamStrategy;
use mmwave_dsp::stats;
use mmwave_phy::mcs::McsTable;

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

    /// One CSV row: `strategy,scenario,rel_mean,rel_median,tput_mbps,product_mbps,overhead`.
    /// Names are escaped via [`crate::metrics::csv_field`], so a strategy
    /// label containing a comma cannot shear the row.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{:.4},{:.4},{:.1},{:.1},{:.4}",
            crate::metrics::csv_field(&self.strategy),
            crate::metrics::csv_field(&self.scenario),
            self.mean_reliability(),
            self.median_reliability(),
            self.mean_throughput_bps() / 1e6,
            self.mean_product_bps() / 1e6,
            self.mean_overhead()
        )
    }
}

/// One run of a sweep that did not complete: the seed that was being
/// played and the panic payload, so a 100-run overnight sweep reports
/// *which* configuration died instead of tearing the whole batch down
/// with an opaque join error.
#[derive(Clone, Debug)]
pub struct FailedRun {
    /// Index of the run within the sweep.
    pub run_idx: usize,
    /// Seed the failed run was instantiated with.
    pub seed: u64,
    /// Panic message (or a placeholder for non-string payloads).
    pub panic_msg: String,
}

impl std::fmt::Display for FailedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "run {} (seed {}) panicked: {}",
            self.run_idx, self.seed, self.panic_msg
        )
    }
}

impl std::error::Error for FailedRun {}

pub(crate) fn panic_msg(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if mmreliable::cancel::is_cancel_unwind(payload.as_ref()) {
        mmreliable::cancel::CancelUnwind.to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Like [`run_many`], but a run that panics becomes an `Err(`[`FailedRun`]`)`
/// in its slot instead of killing the sweep: the other runs (including
/// those sharing the panicking run's thread) still complete.
///
/// `threads == 0` means "use every available core"
/// (`std::thread::available_parallelism`). Seeds — and therefore results —
/// do not depend on the thread count.
pub fn try_run_many<S, F>(
    n_runs: usize,
    base_seed: u64,
    threads: usize,
    scenario_fn: S,
    strategy_fn: F,
) -> Vec<Result<RunResult, FailedRun>>
where
    S: Fn(u64) -> Scenario + Sync,
    F: Fn() -> Box<dyn BeamStrategy + Send> + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    let mut results: Vec<Option<Result<RunResult, FailedRun>>> = Vec::new();
    results.resize_with(n_runs, || None);
    let chunk = n_runs.div_ceil(threads);
    std::thread::scope(|scope| {
        for (ti, slot_chunk) in results.chunks_mut(chunk).enumerate() {
            let scenario_fn = &scenario_fn;
            let strategy_fn = &strategy_fn;
            scope.spawn(move || {
                for (i, slot) in slot_chunk.iter_mut().enumerate() {
                    let run_idx = ti * chunk + i;
                    let seed = base_seed.wrapping_add(run_idx as u64);
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let sc = scenario_fn(seed);
                        let mut sim = sc.simulator(seed);
                        let mut strategy = strategy_fn();
                        sim.run_with_warmup(
                            strategy.as_mut(),
                            sc.duration_s,
                            sc.tick_period_s,
                            sc.name,
                            sc.warmup_s,
                        )
                    }));
                    *slot = Some(outcome.map_err(|payload| FailedRun {
                        run_idx,
                        seed,
                        panic_msg: panic_msg(payload),
                    }));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every slot visited"))
        .collect()
}

/// Runs `n_runs` seeded instances of a scenario family against a strategy
/// family, spread across `threads` OS threads (`0` = every available
/// core). Returns all run records.
///
/// `scenario_fn(seed)` builds the (possibly seed-dependent) scenario;
/// `strategy_fn()` builds a fresh strategy per run.
///
/// Panics if any run panics, naming the failed runs (see [`try_run_many`]
/// for the non-panicking variant).
pub fn run_many<S, F>(
    n_runs: usize,
    base_seed: u64,
    threads: usize,
    scenario_fn: S,
    strategy_fn: F,
) -> Vec<RunResult>
where
    S: Fn(u64) -> Scenario + Sync,
    F: Fn() -> Box<dyn BeamStrategy + Send> + Sync,
{
    let outcomes = try_run_many(n_runs, base_seed, threads, scenario_fn, strategy_fn);
    let failures: Vec<String> = outcomes
        .iter()
        .filter_map(|r| r.as_ref().err().map(|f| f.to_string()))
        .collect();
    if !failures.is_empty() {
        panic!(
            "{} of {} runs failed: {}",
            failures.len(),
            n_runs,
            failures.join("; ")
        );
    }
    outcomes.into_iter().map(|r| r.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use mmwave_baselines::single_reactive::{ReactiveConfig, SingleBeamReactive};

    #[test]
    fn run_many_produces_all_runs() {
        let runs = run_many(4, 100, 2, scenario::mobile_blockage, || {
            Box::new(SingleBeamReactive::new(ReactiveConfig::default()))
        });
        assert_eq!(runs.len(), 4);
        for r in &runs {
            assert!((r.duration_s() - 1.0).abs() < 5e-3);
            assert_eq!(r.strategy, "single-beam reactive");
        }
    }

    #[test]
    fn aggregate_statistics() {
        let mcs = McsTable::nr_table();
        let runs = run_many(3, 7, 3, scenario::mobile_blockage, || {
            Box::new(SingleBeamReactive::new(ReactiveConfig::default()))
        });
        let agg = Aggregate::from_runs(&runs, &mcs).expect("non-empty batch");
        assert_eq!(agg.reliability.len(), 3);
        assert!(agg.mean_reliability() >= 0.0 && agg.mean_reliability() <= 1.0);
        assert!(agg.csv_row().contains("single-beam reactive"));
    }

    #[test]
    fn empty_batch_aggregates_to_none() {
        assert!(Aggregate::from_runs(&[], &McsTable::nr_table()).is_none());
    }

    #[test]
    fn zero_threads_uses_available_parallelism() {
        let go = |threads| {
            let runs = run_many(2, 91, threads, scenario::mobile_blockage, || {
                Box::new(SingleBeamReactive::new(ReactiveConfig::default()))
            });
            runs.iter()
                .map(|r| r.reliability().to_bits())
                .collect::<Vec<_>>()
        };
        // threads = 0 must run (auto-sized pool) and reproduce the
        // single-thread results exactly.
        assert_eq!(go(0), go(1));
    }

    #[test]
    fn panicking_run_is_marked_not_fatal() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct PanicOnTick;
        impl BeamStrategy for PanicOnTick {
            fn name(&self) -> &'static str {
                "panic-on-tick"
            }
            fn on_tick(&mut self, _fe: &mut dyn mmreliable::frontend::LinkFrontEnd, _t_s: f64) {
                panic!("injected test panic");
            }
            fn weights(&self) -> mmwave_array::weights::BeamWeights {
                mmwave_array::weights::BeamWeights::muted(64)
            }
        }

        let built = AtomicUsize::new(0);
        let outcomes = try_run_many(3, 50, 1, scenario::mobile_blockage, || {
            if built.fetch_add(1, Ordering::SeqCst) == 1 {
                Box::new(PanicOnTick)
            } else {
                Box::new(SingleBeamReactive::new(ReactiveConfig::default()))
            }
        });
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].is_ok());
        assert!(
            outcomes[2].is_ok(),
            "runs after the panic must still complete"
        );
        let failed = outcomes[1].as_ref().unwrap_err();
        assert_eq!(failed.run_idx, 1);
        assert_eq!(failed.seed, 51);
        assert!(failed.panic_msg.contains("injected test panic"));
        assert!(failed.to_string().contains("seed 51"));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let go = |threads| {
            let runs = run_many(4, 55, threads, scenario::mobile_blockage, || {
                Box::new(SingleBeamReactive::new(ReactiveConfig::default()))
            });
            runs.iter().map(|r| r.reliability()).collect::<Vec<_>>()
        };
        assert_eq!(go(1), go(4));
    }
}
