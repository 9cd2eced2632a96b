// Fixture: the fleet scheduler's sanctioned idioms — StopWatch for
// latency-only wall time, order-preserving Vecs, intents queued on the
// handler's IntentQueue, reuse inside #[hot_path] kernels. Linted at the
// virtual path crates/sim/src/fleet.rs — never compiled.
use mmreliable::{Intent, IntentKind, IntentQueue, UeId};
use mmwave_hotpath::hot_path;
use mmwave_telemetry::{LatencyHist, StopWatch};

pub struct GoodFleetShard {
    // UE order is insertion order: deterministic across processes.
    lanes: Vec<(u32, f64)>,
    hist: LatencyHist,
}

impl GoodFleetShard {
    // Wall time flows only into the latency histogram (digest-excluded),
    // through the sanctioned StopWatch wrapper.
    pub fn timed_pass(&mut self, io: &mut IntentQueue) {
        let watch = StopWatch::start();
        for (ue, snr) in self.lanes.iter() {
            // Lifecycle state is written by the StateHandler alone: the
            // fleet loop only queues typed intents.
            io.submit(Intent {
                ue: UeId(*ue),
                t_s: 0.0,
                kind: IntentKind::SnrReport {
                    snr_db: *snr,
                    ref_db: *snr,
                    unexplained_drop: false,
                },
            });
        }
        self.hist.record(watch.elapsed_ns());
    }
}

// The per-pass kernel mutates preallocated state only.
#[hot_path]
pub fn step_pass_cleanly(snrs: &mut [f64], acc: &mut f64) {
    for s in snrs.iter() {
        *acc += *s;
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn fixture_is_illustrative_only() {
        assert!(true);
    }
}
