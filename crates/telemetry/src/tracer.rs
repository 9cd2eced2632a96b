//! The [`Tracer`] handle threaded through simulator, strategy, and
//! controller.
//!
//! A tracer is either *disabled* — a `None`, the default everywhere, in
//! which case every call is a branch on an `Option` and nothing else —
//! or an `Arc<Mutex<..>>` around one sink plus one latency histogram per
//! [`Stage`]. Handles clone cheaply, so the simulator can hand the same
//! tracer to the strategy and the controller; a run is single-threaded,
//! so the mutex is uncontended and exists only to keep the handle `Send`
//! for campaign workers.
//!
//! The allocation contract: with a sink whose `wants_events()` is false
//! (i.e. [`NullSink`](crate::sink::NullSink)), no call on a tracer
//! allocates — spans record into fixed-size histogram arrays and slot
//! records are `Copy` structs that are dropped without being boxed. The
//! counting-allocator test in `crates/sim` enforces this.

use crate::hist::{LatencyHist, StageSummary};
use crate::sink::{SlotTrace, TelemetrySink, TraceEvent};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Timed pipeline stages, one latency histogram each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// One `BeamStrategy::on_tick` call (maintenance round included).
    TickCompute,
    /// One front-end probe: channel sounding + SNR evaluation.
    ProbeHandling,
    /// Super-resolution path fitting inside the controller.
    SuperresFit,
    /// Multi-beam weight synthesis + quantisation.
    WeightSynthesis,
    /// One data slot: snapshot, weights, radiated pattern, true SNR.
    DataSlot,
}

/// Number of [`Stage`] variants (histogram array length).
pub const STAGE_COUNT: usize = 5;

impl Stage {
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::TickCompute,
        Stage::ProbeHandling,
        Stage::SuperresFit,
        Stage::WeightSynthesis,
        Stage::DataSlot,
    ];

    pub fn index(self) -> usize {
        match self {
            Stage::TickCompute => 0,
            Stage::ProbeHandling => 1,
            Stage::SuperresFit => 2,
            Stage::WeightSynthesis => 3,
            Stage::DataSlot => 4,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Stage::TickCompute => "tick-compute",
            Stage::ProbeHandling => "probe-handling",
            Stage::SuperresFit => "superres-fit",
            Stage::WeightSynthesis => "weight-synthesis",
            Stage::DataSlot => "data-slot",
        }
    }
}

/// Per-run latency summary: one percentile digest per stage. Always
/// present on `RunResult` (all-zero when telemetry was off), mirroring
/// the `RunCounters` convention.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunLatency {
    pub stages: [StageSummary; STAGE_COUNT],
}

impl RunLatency {
    pub fn stage(&self, s: Stage) -> &StageSummary {
        &self.stages[s.index()]
    }

    /// Tick-compute digest — the headline number.
    pub fn tick(&self) -> &StageSummary {
        self.stage(Stage::TickCompute)
    }

    /// True when no stage recorded anything (telemetry off).
    pub fn is_empty(&self) -> bool {
        self.stages.iter().all(|s| s.count == 0)
    }
}

struct Inner {
    sink: Box<dyn TelemetrySink>,
    hists: [LatencyHist; STAGE_COUNT],
    /// Slots offered to `slot()` so far; drives decimation.
    slots_seen: u64,
}

/// Cheap-clone tracing handle; `Tracer::default()` is disabled.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<Inner>>>,
    /// Copied out of the sink at construction so hot-path callers can
    /// gate event *construction* without taking the lock.
    want_events: bool,
    /// Keep every `decimation`-th slot record (≥ 1).
    decimation: u64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("want_events", &self.want_events)
            .field("decimation", &self.decimation)
            .finish()
    }
}

/// Opaque start-of-span token from [`Tracer::begin`]. Zero-cost when the
/// tracer is disabled.
#[must_use = "pass the clock back to Tracer::end"]
#[derive(Clone, Copy, Debug)]
pub struct SpanClock(Option<Instant>);

/// A plain wall-clock stopwatch for callers outside the [`Tracer`] span
/// API — e.g. the fleet scheduler timing one handler pass per shard into
/// a [`LatencyHist`]. Wall-clock readings must never feed back into
/// simulation state (they are excluded from digests), so components under
/// the determinism lint use this wrapper instead of naming `Instant`
/// directly; keeping the clock behind this one type makes that rule
/// auditable.
#[derive(Clone, Copy, Debug)]
pub struct StopWatch(Instant);

impl StopWatch {
    /// Starts (or restarts — just overwrite) the stopwatch.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Nanoseconds since [`StopWatch::start`], saturating at `u64::MAX`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Tracer {
    /// The no-op tracer: every call is a single branch.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A tracer feeding `sink`, keeping every `decimation`-th slot
    /// record (0 is treated as 1 = keep all).
    pub fn new(sink: Box<dyn TelemetrySink>, decimation: u64) -> Self {
        let want_events = sink.wants_events();
        Self {
            inner: Some(Arc::new(Mutex::new(Inner {
                sink,
                hists: std::array::from_fn(|_| LatencyHist::new()),
                slots_seen: 0,
            }))),
            want_events,
            decimation: decimation.max(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether the sink keeps events. Callers use this to skip building
    /// `String`/`Vec` payloads that would be dropped anyway.
    pub fn wants_events(&self) -> bool {
        self.inner.is_some() && self.want_events
    }

    /// Start timing a stage. Free when disabled.
    pub fn begin(&self) -> SpanClock {
        SpanClock(self.inner.as_ref().map(|_| Instant::now()))
    }

    /// Finish a span: record the wall-clock duration into the stage's
    /// histogram and (if the sink keeps events) emit a span event
    /// attributed to simulated time `t_s`.
    pub fn end(&self, clock: SpanClock, stage: Stage, t_s: f64) {
        let (Some(t0), Some(shared)) = (clock.0, self.inner.as_ref()) else {
            return;
        };
        let dur_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut inner = shared.lock().expect("tracer poisoned");
        inner.hists[stage.index()].record(dur_ns);
        if self.want_events {
            inner.sink.record(TraceEvent::Span { stage, t_s, dur_ns });
        }
    }

    /// Offer one per-slot sample; kept every `decimation`-th time. The
    /// argument is `Copy`, so a discarded sample costs nothing.
    pub fn slot(&self, sample: SlotTrace) {
        let Some(shared) = self.inner.as_ref() else {
            return;
        };
        let mut inner = shared.lock().expect("tracer poisoned");
        let keep = inner.slots_seen % self.decimation == 0;
        inner.slots_seen += 1;
        if keep && self.want_events {
            inner.sink.record(TraceEvent::Slot(sample));
        }
    }

    /// Emit a non-slot event (round, probe, lifecycle, decision).
    /// Callers building heap payloads should gate on [`Self::wants_events`]
    /// first; this method re-checks and drops otherwise.
    pub fn event(&self, ev: TraceEvent) {
        let Some(shared) = self.inner.as_ref() else {
            return;
        };
        if !self.want_events {
            return;
        }
        shared.lock().expect("tracer poisoned").sink.record(ev);
    }

    /// Percentile digests of everything recorded so far.
    pub fn latency(&self) -> RunLatency {
        let Some(shared) = self.inner.as_ref() else {
            return RunLatency::default();
        };
        let inner = shared.lock().expect("tracer poisoned");
        RunLatency {
            stages: std::array::from_fn(|i| inner.hists[i].summary()),
        }
    }

    /// Clone of the raw per-stage histograms (for campaign merging).
    pub fn histograms(&self) -> [LatencyHist; STAGE_COUNT] {
        let Some(shared) = self.inner.as_ref() else {
            return std::array::from_fn(|_| LatencyHist::new());
        };
        let inner = shared.lock().expect("tracer poisoned");
        inner.hists.clone()
    }

    /// Pull buffered events out of the sink (oldest first).
    pub fn drain_events(&self) -> Vec<TraceEvent> {
        match self.inner.as_ref() {
            Some(shared) => shared.lock().expect("tracer poisoned").sink.drain(),
            None => Vec::new(),
        }
    }

    /// Events the sink discarded for capacity.
    pub fn dropped(&self) -> u64 {
        match self.inner.as_ref() {
            Some(shared) => shared.lock().expect("tracer poisoned").sink.dropped(),
            None => 0,
        }
    }

    /// Clear histograms and the decimation counter for a fresh run,
    /// keeping the sink (and whatever it already holds).
    pub fn reset(&self) {
        if let Some(shared) = self.inner.as_ref() {
            let mut inner = shared.lock().expect("tracer poisoned");
            for h in inner.hists.iter_mut() {
                h.clear();
            }
            inner.slots_seen = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{NullSink, RingBufferSink};

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert!(!t.wants_events());
        let c = t.begin();
        t.end(c, Stage::TickCompute, 0.0);
        t.slot(SlotTrace {
            slot: 0,
            t_s: 0.0,
            snr_db: 0.0,
            blockage_db: 0.0,
            probing: false,
            outage: false,
        });
        assert!(t.latency().is_empty());
        assert!(t.drain_events().is_empty());
    }

    #[test]
    fn null_sink_fills_histograms_but_keeps_no_events() {
        let t = Tracer::new(Box::new(NullSink), 1);
        assert!(t.enabled());
        assert!(!t.wants_events());
        for _ in 0..10 {
            let c = t.begin();
            t.end(c, Stage::WeightSynthesis, 0.125);
        }
        let lat = t.latency();
        assert_eq!(lat.stage(Stage::WeightSynthesis).count, 10);
        assert_eq!(lat.tick().count, 0);
        assert!(t.drain_events().is_empty());
    }

    #[test]
    fn decimation_keeps_every_nth_slot() {
        let t = Tracer::new(Box::new(RingBufferSink::new(1024)), 4);
        for n in 0..20u64 {
            t.slot(SlotTrace {
                slot: n,
                t_s: n as f64,
                snr_db: 10.0,
                blockage_db: 0.0,
                probing: false,
                outage: false,
            });
        }
        let kept: Vec<u64> = t
            .drain_events()
            .into_iter()
            .map(|e| match e {
                TraceEvent::Slot(s) => s.slot,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(kept, [0, 4, 8, 12, 16]);
    }

    #[test]
    fn clones_share_state_and_reset_clears_it() {
        let t = Tracer::new(Box::new(RingBufferSink::new(16)), 1);
        let t2 = t.clone();
        let c = t2.begin();
        t2.end(c, Stage::SuperresFit, 1.0);
        assert_eq!(t.latency().stage(Stage::SuperresFit).count, 1);
        t.reset();
        assert!(t.latency().is_empty());
    }
}
