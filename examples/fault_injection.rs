//! Fault injection: stress the link lifecycle with probe loss and dead
//! antenna elements, then read the transition/fault event log.
//!
//! ```text
//! cargo run --release --example fault_injection [loss_prob]
//! ```
//!
//! Wraps the standard static-walker blockage scenario in a
//! [`FaultInjector`]: a probe-loss storm erases a fraction of CSI reports
//! and two array elements are dead for the whole run. The controller's
//! lifecycle state machine has to ride through both — bounded re-train
//! scans, degraded-mode fallback, no panic — and every state transition
//! and injected fault lands in the run's event log.

use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmwave_baselines::strategy::MmReliableStrategy;
use mmwave_sim::scenario;
use mmwave_sim::{FaultInjector, FaultSchedule, ProbeLossWindow, SimFrontEnd};

fn main() {
    let loss_prob: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);

    let sc = scenario::static_walker();
    let schedule = FaultSchedule {
        probe_loss: vec![ProbeLossWindow {
            start_s: 0.1,
            end_s: sc.total_time_s(),
            loss_prob,
        }],
        failed_elements: vec![5, 40],
        ..FaultSchedule::none()
    };
    println!(
        "scenario {:?}: probe loss {:.0}% from t = 0.1 s, elements 5 and 40 dead",
        sc.name,
        100.0 * loss_prob
    );

    let mut fe = FaultInjector::new(sc.simulator(17), schedule)
        .unwrap_or_else(|e| panic!("valid fault schedule: {e}"));
    let mut strategy =
        MmReliableStrategy::new(MmReliableController::new(MmReliableConfig::paper_default()));
    let result = fe.run_with_warmup(
        &mut strategy,
        sc.duration_s,
        sc.tick_period_s,
        sc.name,
        sc.warmup_s,
    );

    println!(
        "\nreliability {:.4}, probing overhead {:.2}%, {} faults injected, {} re-train scans",
        result.reliability(),
        100.0 * result.probing_overhead(),
        result.faults().count(),
        result.retrain_attempts(),
    );

    println!("\nlifecycle transitions:");
    for tr in result.transitions() {
        println!(
            "  t = {:>6.3} s  {} -> {}  ({:?})",
            tr.t_s,
            tr.from.kind(),
            tr.to.kind(),
            tr.cause
        );
    }

    println!("\nfirst injected faults:");
    for f in result.faults().take(8) {
        println!("  t = {:>6.3} s  {}", f.t_s, f.kind);
    }
}
