//! `mmwave-telemetry`: the observability layer of the mmReliable
//! reproduction.
//!
//! Everything a run or a campaign can tell you about itself flows
//! through this crate:
//!
//! * [`tracer::Tracer`] — a cheap-clone handle threaded through
//!   `LinkSimulator`, `BeamStrategy`, and the controller. Disabled by
//!   default (one branch per call site); when enabled it times
//!   [`tracer::Stage`] spans into per-stage latency histograms and
//!   streams [`sink::TraceEvent`]s into a pluggable sink.
//! * [`hist::LatencyHist`] — fixed-bucket log-scale (HDR-style)
//!   histograms: 496 buckets cover the full `u64` ns range at ≤ 12.5 %
//!   relative error, and two histograms merge bucket-for-bucket, which
//!   is what lets the campaign aggregate thousands of cells.
//! * [`sink`] — `NullSink` (histograms only, provably allocation-free)
//!   and `RingBufferSink` (bounded, per-worker, drained post-run; the
//!   campaign persists what it drains as cell-tagged JSONL).
//! * [`metrics::MetricsRegistry`] — typed counters/gauges/histograms
//!   registered per resource (a UE, a worker, a campaign cell), with a
//!   Prometheus text exporter and a JSONL snapshot form that re-merges
//!   losslessly across workers and runs (`mmwave-admin metrics`).
//! * [`chrome`] — Chrome-trace-format export so a whole campaign loads
//!   in Perfetto as a flamegraph.
//! * [`json`] — the hand-rolled JSON escape/validate/extract helpers the
//!   trace pipeline and its CI validation share.
//!
//! The crate has no dependencies and its types are always available;
//! downstream crates gate only the *instrumentation call sites* behind
//! their `telemetry` cargo feature, mirroring the `perf-counters`
//! convention.

pub mod chrome;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod tracer;

pub use chrome::chrome_trace_json;
pub use hist::{LatencyHist, StageSummary, N_BUCKETS};
pub use json::{field_f64, field_raw, field_str, field_u64, json_escape, validate_json_line};
pub use metrics::{CounterId, GaugeId, HistId, MetricsRegistry, ResourceId};
pub use sink::{NullSink, RingBufferSink, SlotTrace, TelemetrySink, TraceEvent};
pub use tracer::{RunLatency, SpanClock, Stage, StopWatch, Tracer, STAGE_COUNT};
