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
//!   own uncontended mutex); drained post-run by the campaign supervisor.
//! * [`JsonlSink`] — renders events to JSON lines and persists them with
//!   the same tmp-file + atomic-rename discipline as the campaign
//!   journal, so a crash never leaves a torn trace.

use crate::json::{fmt_f64_json, json_escape};
use crate::tracer::Stage;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

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

    /// Persist anything buffered. No-op for in-memory sinks.
    fn flush(&mut self) -> Result<(), String> {
        Ok(())
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

/// Renders events to cell-tagged JSON lines and persists them crash-
/// consistently: the full line set is rewritten to `<path>.tmp` and
/// atomically renamed over `<path>`, exactly like the campaign journal.
/// A reader therefore sees either the previous complete trace or the new
/// complete trace — never a torn line.
#[derive(Debug)]
pub struct JsonlSink {
    cell: String,
    path: PathBuf,
    lines: Vec<String>,
    unflushed: usize,
}

/// [`JsonlSink`] rewrites its file after this many unflushed records.
const FLUSH_EVERY: usize = 256;

impl JsonlSink {
    pub fn new(path: impl Into<PathBuf>, cell: impl Into<String>) -> Self {
        Self {
            cell: cell.into(),
            path: path.into(),
            lines: Vec::new(),
            unflushed: 0,
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    fn write_all_lines(&self) -> Result<(), String> {
        let tmp = self.path.with_extension("jsonl.tmp");
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("create {}: {e}", dir.display()))?;
            }
        }
        let mut body = String::new();
        for l in &self.lines {
            body.push_str(l);
            body.push('\n');
        }
        std::fs::write(&tmp, body).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), self.path.display()))
    }
}

impl TelemetrySink for JsonlSink {
    fn record(&mut self, ev: TraceEvent) {
        self.lines.push(ev.to_json(&self.cell));
        self.unflushed += 1;
        if self.unflushed >= FLUSH_EVERY {
            // Mid-run persistence is best-effort; the explicit post-run
            // flush surfaces any error.
            let _ = self.flush();
        }
    }

    fn flush(&mut self) -> Result<(), String> {
        self.write_all_lines()?;
        self.unflushed = 0;
        Ok(())
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if self.unflushed > 0 {
            let _ = self.write_all_lines();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{field_str, field_u64, validate_json_line};

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

    #[test]
    fn jsonl_sink_persists_atomically() {
        let dir =
            std::env::temp_dir().join(format!("mmwave-telemetry-test-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        let mut s = JsonlSink::new(&path, "cellA");
        for n in 0..4 {
            s.record(slot(n));
        }
        s.flush().expect("flush");
        let body = std::fs::read_to_string(&path).expect("trace file");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 4);
        for (n, l) in lines.iter().enumerate() {
            validate_json_line(l).expect("valid line");
            assert_eq!(field_u64(l, "slot"), Some(n as u64));
        }
        assert!(!path.with_extension("jsonl.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
