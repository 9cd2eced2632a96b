//! Trace events and the pluggable sink they flow into.
//!
//! A [`Tracer`](crate::tracer::Tracer) owns exactly one boxed
//! [`TelemetrySink`]. The sink decides the cost model:
//!
//! * [`NullSink`] — discards everything and tells the tracer up front
//!   (via [`TelemetrySink::wants_events`]) not to even *construct*
//!   events, so the hot path stays allocation-free (histograms still
//!   fill; they are fixed arrays).
//! * [`RingBufferSink`] — a bounded in-memory ring, owned by one run on
//!   one worker thread (never shared, so no locking beyond the tracer's
//!   own uncontended mutex); drained post-run by the campaign supervisor,
//!   which persists the events as cell-tagged JSON lines
//!   ([`TraceEvent::to_json`]) through its crash-consistent line file.

use crate::json::{fmt_f64_json, json_escape};
use crate::tracer::Stage;
use std::collections::VecDeque;

/// Per-slot link telemetry sampled from the simulator's run loop at the
/// configured decimation. All scalars — constructing one never allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlotTrace {
    pub slot: u64,
    pub t_s: f64,
    /// True post-beamforming SNR for a data slot; NaN for probing slots
    /// (rendered as JSON `null`).
    pub snr_db: f64,
    /// Deepest per-path blockage on the channel snapshot, dB.
    pub blockage_db: f64,
    /// This slot was spent probing rather than carrying data.
    pub probing: bool,
    /// Data-slot SNR fell below the outage threshold.
    pub outage: bool,
}

/// One telemetry event. Everything the trace pipeline moves is one of
/// these; sinks and exporters pattern-match on the variants.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Decimated per-slot sample from `LinkSimulator`'s run loop.
    Slot(SlotTrace),
    /// A timed stage span: wall-clock duration attributed to sim time.
    Span { stage: Stage, t_s: f64, dur_ns: u64 },
    /// One controller maintenance round: lifecycle state, per-beam SNR
    /// estimates, and the classification it acted on.
    Round {
        t_s: f64,
        state: &'static str,
        verdict: &'static str,
        per_beam_db: Vec<f64>,
    },
    /// Outcome of a single probe as seen by the controller.
    Probe {
        t_s: f64,
        kind: &'static str,
        snr_db: f64,
    },
    /// A lifecycle transition out of `LinkLifecycle::apply`.
    Lifecycle {
        t_s: f64,
        from: &'static str,
        to: &'static str,
        cause: String,
    },
    /// A retry/backoff or fallback decision, free-form.
    Decision { t_s: f64, what: String },
}

impl TraceEvent {
    /// Simulated time the event is attributed to.
    pub fn t_s(&self) -> f64 {
        match self {
            TraceEvent::Slot(s) => s.t_s,
            TraceEvent::Span { t_s, .. }
            | TraceEvent::Round { t_s, .. }
            | TraceEvent::Probe { t_s, .. }
            | TraceEvent::Lifecycle { t_s, .. }
            | TraceEvent::Decision { t_s, .. } => *t_s,
        }
    }

    /// Discriminant name as it appears in the JSONL `kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Slot(_) => "slot",
            TraceEvent::Span { .. } => "span",
            TraceEvent::Round { .. } => "round",
            TraceEvent::Probe { .. } => "probe",
            TraceEvent::Lifecycle { .. } => "lifecycle",
            TraceEvent::Decision { .. } => "decision",
        }
    }

    /// Render as one JSON line tagged with the owning cell id.
    pub fn to_json(&self, cell: &str) -> String {
        let head = format!(
            "{{\"cell\":\"{}\",\"kind\":\"{}\",\"t_s\":{}",
            json_escape(cell),
            self.kind(),
            fmt_f64_json(self.t_s())
        );
        let body = match self {
            TraceEvent::Slot(s) => format!(
                ",\"slot\":{},\"snr_db\":{},\"blockage_db\":{},\"probing\":{},\"outage\":{}",
                s.slot,
                fmt_f64_json(s.snr_db),
                fmt_f64_json(s.blockage_db),
                s.probing,
                s.outage
            ),
            TraceEvent::Span { stage, dur_ns, .. } => {
                format!(",\"stage\":\"{}\",\"dur_ns\":{}", stage.name(), dur_ns)
            }
            TraceEvent::Round {
                state,
                verdict,
                per_beam_db,
                ..
            } => {
                let beams: Vec<String> = per_beam_db.iter().map(|&v| fmt_f64_json(v)).collect();
                format!(
                    ",\"state\":\"{}\",\"verdict\":\"{}\",\"per_beam_db\":[{}]",
                    state,
                    verdict,
                    beams.join(",")
                )
            }
            TraceEvent::Probe { kind, snr_db, .. } => {
                format!(
                    ",\"probe\":\"{}\",\"snr_db\":{}",
                    kind,
                    fmt_f64_json(*snr_db)
                )
            }
            TraceEvent::Lifecycle {
                from, to, cause, ..
            } => format!(
                ",\"from\":\"{}\",\"to\":\"{}\",\"cause\":\"{}\"",
                from,
                to,
                json_escape(cause)
            ),
            TraceEvent::Decision { what, .. } => {
                format!(",\"what\":\"{}\"", json_escape(what))
            }
        };
        format!("{head}{body}}}")
    }
}

/// Where a tracer's events go. Implementations are owned by exactly one
/// run at a time; `Send` so the campaign can hand them to worker threads.
pub trait TelemetrySink: Send {
    /// Whether this sink keeps events at all. When `false` the tracer
    /// skips event construction entirely — the zero-overhead contract of
    /// [`NullSink`]. Histograms are unaffected (they live in the tracer).
    fn wants_events(&self) -> bool {
        true
    }

    /// Accept one event. Must not panic; bounded sinks drop instead.
    fn record(&mut self, ev: TraceEvent);

    /// Hand back buffered events (oldest first), leaving the sink empty.
    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Events discarded due to capacity limits.
    fn dropped(&self) -> u64 {
        0
    }
}

/// Discards every event; the tracer sees `wants_events() == false` and
/// never constructs one. This is the default sink for production runs:
/// latency histograms still fill, at the cost of two array increments.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn wants_events(&self) -> bool {
        false
    }

    fn record(&mut self, _ev: TraceEvent) {}
}

/// Bounded in-memory ring. On overflow the *oldest* event is dropped —
/// the tail of a run is what post-mortems need most.
#[derive(Debug)]
pub struct RingBufferSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingBufferSink {
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TelemetrySink for RingBufferSink {
    fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{field_str, validate_json_line};

    fn slot(n: u64) -> TraceEvent {
        TraceEvent::Slot(SlotTrace {
            slot: n,
            t_s: n as f64 * 0.000_125,
            snr_db: 21.5,
            blockage_db: 0.0,
            probing: false,
            outage: false,
        })
    }

    #[test]
    fn every_variant_renders_valid_json() {
        let events = [
            slot(3),
            TraceEvent::Span {
                stage: Stage::TickCompute,
                t_s: 0.5,
                dur_ns: 1234,
            },
            TraceEvent::Round {
                t_s: 0.5,
                state: "Up",
                verdict: "AllGood",
                per_beam_db: vec![18.0, f64::NAN],
            },
            TraceEvent::Probe {
                t_s: 0.25,
                kind: "csi-rs",
                snr_db: 17.25,
            },
            TraceEvent::Lifecycle {
                t_s: 0.75,
                from: "Up",
                to: "Degraded",
                cause: "blockage \"deep\"\nline2".to_string(),
            },
            TraceEvent::Decision {
                t_s: 0.8,
                what: "retrain backoff 0.02s".to_string(),
            },
        ];
        for ev in &events {
            let line = ev.to_json("mobile-blockage|mmreliable|s7000|f-|r1");
            validate_json_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(field_str(&line, "kind").as_deref(), Some(ev.kind()));
            assert!(field_str(&line, "cell").is_some());
        }
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut s = RingBufferSink::new(3);
        for n in 0..5 {
            s.record(slot(n));
        }
        assert_eq!(s.dropped(), 2);
        let kept = s.drain();
        let slots: Vec<u64> = kept
            .iter()
            .map(|e| match e {
                TraceEvent::Slot(t) => t.slot,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(slots, [2, 3, 4]);
        assert!(s.is_empty());
    }
}
