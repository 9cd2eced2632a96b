//! Chrome-trace-format export (loadable in `chrome://tracing` and
//! Perfetto).
//!
//! Mapping: each cell becomes one *process* (`pid`, named via
//! `process_name` metadata) so a campaign renders as a stack of lanes.
//! Stage spans are complete (`"ph":"X"`) events on the cell's compute
//! thread; their `ts` is **simulated** time (µs) while `dur` is the
//! measured **wall-clock** µs — the flamegraph shows where in the run's
//! timeline compute was spent and how much. SNR/blockage slot samples
//! become counter (`"ph":"C"`) tracks, and lifecycle transitions,
//! probes, and decisions become instant (`"ph":"i"`) markers.

use crate::json::{fmt_f64_json, json_escape};
use crate::sink::TraceEvent;

const COMPUTE_TID: u32 = 1;
const EVENT_TID: u32 = 2;

fn us(t_s: f64) -> f64 {
    t_s * 1e6
}

/// Render `(cell id, events)` pairs as one Chrome-trace JSON document.
pub fn chrome_trace_json(cells: &[(String, Vec<TraceEvent>)]) -> String {
    let mut out = Vec::new();
    for (pid0, (cell, events)) in cells.iter().enumerate() {
        let pid = pid0 + 1;
        out.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(cell)
        ));
        out.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{COMPUTE_TID},\"args\":{{\"name\":\"compute\"}}}}"
        ));
        out.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{EVENT_TID},\"args\":{{\"name\":\"link events\"}}}}"
        ));
        for ev in events {
            match ev {
                TraceEvent::Span { stage, t_s, dur_ns } => out.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{COMPUTE_TID}}}",
                    stage.name(),
                    fmt_f64_json(us(*t_s)),
                    fmt_f64_json(*dur_ns as f64 / 1e3),
                )),
                TraceEvent::Slot(s) => {
                    if s.snr_db.is_finite() {
                        out.push(format!(
                            "{{\"name\":\"snr_db\",\"ph\":\"C\",\"ts\":{},\"pid\":{pid},\"args\":{{\"snr_db\":{}}}}}",
                            fmt_f64_json(us(s.t_s)),
                            fmt_f64_json(s.snr_db),
                        ));
                    }
                    out.push(format!(
                        "{{\"name\":\"blockage_db\",\"ph\":\"C\",\"ts\":{},\"pid\":{pid},\"args\":{{\"blockage_db\":{}}}}}",
                        fmt_f64_json(us(s.t_s)),
                        fmt_f64_json(s.blockage_db),
                    ));
                }
                TraceEvent::Lifecycle { t_s, from, to, .. } => out.push(format!(
                    "{{\"name\":\"{from}->{to}\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{},\"pid\":{pid},\"tid\":{EVENT_TID}}}",
                    fmt_f64_json(us(*t_s)),
                )),
                TraceEvent::Probe { t_s, kind, .. } => out.push(format!(
                    "{{\"name\":\"probe {kind}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{EVENT_TID}}}",
                    fmt_f64_json(us(*t_s)),
                )),
                TraceEvent::Round { t_s, verdict, .. } => out.push(format!(
                    "{{\"name\":\"round {verdict}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{EVENT_TID}}}",
                    fmt_f64_json(us(*t_s)),
                )),
                TraceEvent::Decision { t_s, what } => out.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{EVENT_TID}}}",
                    json_escape(what),
                    fmt_f64_json(us(*t_s)),
                )),
            }
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        out.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json_line;
    use crate::sink::SlotTrace;
    use crate::tracer::Stage;

    #[test]
    fn export_is_one_valid_json_document() {
        let cells = vec![
            (
                "mobile-blockage|mmreliable|s7000|f-|r1".to_string(),
                vec![
                    TraceEvent::Span {
                        stage: Stage::TickCompute,
                        t_s: 0.0,
                        dur_ns: 42_000,
                    },
                    TraceEvent::Slot(SlotTrace {
                        slot: 1,
                        t_s: 0.000_125,
                        snr_db: 19.0,
                        blockage_db: 0.0,
                        probing: false,
                        outage: false,
                    }),
                    TraceEvent::Slot(SlotTrace {
                        slot: 2,
                        t_s: 0.000_250,
                        snr_db: f64::NAN,
                        blockage_db: 12.0,
                        probing: true,
                        outage: false,
                    }),
                    TraceEvent::Lifecycle {
                        t_s: 0.5,
                        from: "Up",
                        to: "Degraded",
                        cause: "x".into(),
                    },
                    TraceEvent::Probe {
                        t_s: 0.25,
                        kind: "ssb",
                        snr_db: 15.0,
                    },
                    TraceEvent::Round {
                        t_s: 0.25,
                        state: "Up",
                        verdict: "Realign",
                        per_beam_db: vec![1.0],
                    },
                    TraceEvent::Decision {
                        t_s: 0.3,
                        what: "backoff \"x2\"".into(),
                    },
                ],
            ),
            ("second-cell".to_string(), vec![]),
        ];
        let doc = chrome_trace_json(&cells);
        validate_json_line(&doc).expect("valid chrome trace");
        assert!(doc.contains("\"process_name\""));
        assert!(doc.contains("tick-compute"));
        // NaN SNR sample contributes no snr counter but keeps blockage.
        assert_eq!(doc.matches("\"name\":\"snr_db\"").count(), 1);
        assert_eq!(doc.matches("\"name\":\"blockage_db\"").count(), 2);
    }
}
