//! Per-resource metrics registry: typed counters, gauges, and latency
//! histograms, registered once per resource (a UE, a worker, a campaign
//! cell, a fleet) and updated through copyable integer handles.
//!
//! The split between *registration* (allocates: names are interned,
//! lookup maps grow) and *update* (an index into a `Vec`, no allocation,
//! no hashing) is the contract the hot paths rely on: a capture layer
//! registers everything it will ever touch up front, then updates
//! per pass at slot rate. In the byte-identity crates every call site
//! that touches a registry must sit under `#[cfg(feature =
//! "telemetry")]` — the `telemetry-hygiene` xtask lint enforces it — so
//! the feature-off build carries no registry at all and stays
//! bit-identical (the fingerprint harness proves it).
//!
//! Two export forms, both deterministic (sorted by metric name, then
//! resource name — never map iteration order):
//!
//! * [`MetricsRegistry::prometheus_text`] — the Prometheus text
//!   exposition format (counters, gauges, and summaries with
//!   p50/p95/p99 quantiles).
//! * [`MetricsRegistry::snapshot_jsonl`] — one self-contained JSON
//!   object per metric instance, suitable for appending to a snapshot
//!   file. Histograms serialize their sparse bucket counts plus the
//!   exact sum/max, so snapshots written by different workers (or
//!   different runs) re-merge losslessly through
//!   [`MetricsRegistry::absorb_line`]: counters add, gauges last-write
//!   win, histograms merge bucket-for-bucket.

use crate::hist::{LatencyHist, N_BUCKETS};
use crate::json::{field_raw, field_str, field_u64, fmt_f64_json, json_escape};
use std::collections::BTreeMap;

/// Handle to a registered resource (allocation-free to copy and use).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourceId(usize);

/// Handle to a registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(usize);

#[derive(Clone, Debug)]
struct Slot<T> {
    resource: usize,
    metric: String,
    value: T,
}

/// The registry: all metric state for one capture scope.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    resources: Vec<String>,
    resource_index: BTreeMap<String, usize>,
    counters: Vec<Slot<u64>>,
    counter_index: BTreeMap<(usize, String), usize>,
    gauges: Vec<Slot<f64>>,
    gauge_index: BTreeMap<(usize, String), usize>,
    hists: Vec<Slot<LatencyHist>>,
    hist_index: BTreeMap<(usize, String), usize>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) a resource by name.
    pub fn resource(&mut self, name: &str) -> ResourceId {
        if let Some(&i) = self.resource_index.get(name) {
            return ResourceId(i);
        }
        let i = self.resources.len();
        self.resources.push(name.to_string());
        self.resource_index.insert(name.to_string(), i);
        ResourceId(i)
    }

    /// Registers (or finds) a counter under `resource`.
    pub fn counter(&mut self, resource: ResourceId, metric: &str) -> CounterId {
        let key = (resource.0, metric.to_string());
        if let Some(&i) = self.counter_index.get(&key) {
            return CounterId(i);
        }
        let i = self.counters.len();
        self.counters.push(Slot {
            resource: resource.0,
            metric: key.1.clone(),
            value: 0,
        });
        self.counter_index.insert(key, i);
        CounterId(i)
    }

    /// Registers (or finds) a gauge under `resource`.
    pub fn gauge(&mut self, resource: ResourceId, metric: &str) -> GaugeId {
        let key = (resource.0, metric.to_string());
        if let Some(&i) = self.gauge_index.get(&key) {
            return GaugeId(i);
        }
        let i = self.gauges.len();
        self.gauges.push(Slot {
            resource: resource.0,
            metric: key.1.clone(),
            value: 0.0,
        });
        self.gauge_index.insert(key, i);
        GaugeId(i)
    }

    /// Registers (or finds) a latency histogram under `resource`.
    pub fn histogram(&mut self, resource: ResourceId, metric: &str) -> HistId {
        let key = (resource.0, metric.to_string());
        if let Some(&i) = self.hist_index.get(&key) {
            return HistId(i);
        }
        let i = self.hists.len();
        self.hists.push(Slot {
            resource: resource.0,
            metric: key.1.clone(),
            value: LatencyHist::new(),
        });
        self.hist_index.insert(key, i);
        HistId(i)
    }

    /// Adds to a counter (saturating). Allocation-free.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        let v = &mut self.counters[id.0].value;
        *v = v.saturating_add(n);
    }

    /// Sets a counter to an absolute value (for publishing running
    /// totals accumulated elsewhere). Allocation-free.
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id.0].value = v;
    }

    /// Sets a gauge. Allocation-free.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0].value = v;
    }

    /// Records one sample into a histogram. Allocation-free.
    #[inline]
    pub fn observe_ns(&mut self, id: HistId, ns: u64) {
        self.hists[id.0].value.record(ns);
    }

    /// Folds a whole histogram into a registered one.
    pub fn merge_hist(&mut self, id: HistId, h: &LatencyHist) {
        self.hists[id.0].value.merge(h);
    }

    /// Current counter value.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].value
    }

    /// Current gauge value.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0].value
    }

    /// Registered histogram contents.
    pub fn hist(&self, id: HistId) -> &LatencyHist {
        &self.hists[id.0].value
    }

    /// Looks up a counter without registering it.
    pub fn find_counter(&self, resource: &str, metric: &str) -> Option<CounterId> {
        let r = *self.resource_index.get(resource)?;
        self.counter_index
            .get(&(r, metric.to_string()))
            .map(|&i| CounterId(i))
    }

    /// Looks up a gauge without registering it.
    pub fn find_gauge(&self, resource: &str, metric: &str) -> Option<GaugeId> {
        let r = *self.resource_index.get(resource)?;
        self.gauge_index
            .get(&(r, metric.to_string()))
            .map(|&i| GaugeId(i))
    }

    /// Looks up a histogram without registering it.
    pub fn find_histogram(&self, resource: &str, metric: &str) -> Option<HistId> {
        let r = *self.resource_index.get(resource)?;
        self.hist_index
            .get(&(r, metric.to_string()))
            .map(|&i| HistId(i))
    }

    /// All counters as `(resource, metric, value)`, sorted by metric
    /// then resource.
    pub fn counters(&self) -> Vec<(&str, &str, u64)> {
        let mut out: Vec<_> = self
            .counters
            .iter()
            .map(|s| {
                (
                    self.resources[s.resource].as_str(),
                    s.metric.as_str(),
                    s.value,
                )
            })
            .collect();
        out.sort_by(|a, b| (a.1, a.0).cmp(&(b.1, b.0)));
        out
    }

    /// All gauges as `(resource, metric, value)`, sorted by metric then
    /// resource.
    pub fn gauges(&self) -> Vec<(&str, &str, f64)> {
        let mut out: Vec<_> = self
            .gauges
            .iter()
            .map(|s| {
                (
                    self.resources[s.resource].as_str(),
                    s.metric.as_str(),
                    s.value,
                )
            })
            .collect();
        out.sort_by(|a, b| (a.1, a.0).cmp(&(b.1, b.0)));
        out
    }

    /// All histograms as `(resource, metric, hist)`, sorted by metric
    /// then resource.
    pub fn histograms(&self) -> Vec<(&str, &str, &LatencyHist)> {
        let mut out: Vec<_> = self
            .hists
            .iter()
            .map(|s| {
                (
                    self.resources[s.resource].as_str(),
                    s.metric.as_str(),
                    &s.value,
                )
            })
            .collect();
        out.sort_by(|a, b| (a.1, a.0).cmp(&(b.1, b.0)));
        out
    }

    /// Total registered metric instances across all kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Prometheus text exposition. Metric names are prefixed `mmwave_`
    /// and sanitised to `[a-zA-Z0-9_:]`; the resource rides in a
    /// `resource` label. Histograms export as summaries (p50/p95/p99
    /// quantiles plus `_count`/`_sum`). Output order is deterministic.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_header = String::new();
        let mut header = |out: &mut String, name: &str, kind: &str| {
            if last_header != name {
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                last_header = name.to_string();
            }
        };
        for (res, metric, v) in self.counters() {
            let name = format!("mmwave_{}", prom_sanitize(metric));
            header(&mut out, &name, "counter");
            out.push_str(&format!(
                "{name}{{resource=\"{}\"}} {v}\n",
                prom_label_escape(res)
            ));
        }
        for (res, metric, v) in self.gauges() {
            let name = format!("mmwave_{}", prom_sanitize(metric));
            header(&mut out, &name, "gauge");
            out.push_str(&format!(
                "{name}{{resource=\"{}\"}} {}\n",
                prom_label_escape(res),
                fmt_f64_json(v)
            ));
        }
        for (res, metric, h) in self.histograms() {
            let name = format!("mmwave_{}", prom_sanitize(metric));
            header(&mut out, &name, "summary");
            let res = prom_label_escape(res);
            for (q, v) in [
                ("0.5", h.percentile_ns(50.0)),
                ("0.95", h.percentile_ns(95.0)),
                ("0.99", h.percentile_ns(99.0)),
            ] {
                out.push_str(&format!(
                    "{name}{{resource=\"{res}\",quantile=\"{q}\"}} {v}\n"
                ));
            }
            out.push_str(&format!(
                "{name}_count{{resource=\"{res}\"}} {}\n",
                h.count()
            ));
            out.push_str(&format!(
                "{name}_sum{{resource=\"{res}\"}} {}\n",
                h.sum_ns()
            ));
        }
        out
    }

    /// One self-contained JSON object per metric instance, deterministic
    /// order, each line valid under `validate_json_line`. Histogram sum
    /// is a decimal string (it is a `u128`; JSON numbers lose precision
    /// past 2^53).
    pub fn snapshot_jsonl(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.len());
        for (res, metric, v) in self.counters() {
            out.push(format!(
                "{{\"kind\":\"counter\",\"resource\":\"{}\",\"metric\":\"{}\",\"value\":{v}}}",
                json_escape(res),
                json_escape(metric)
            ));
        }
        for (res, metric, v) in self.gauges() {
            out.push(format!(
                "{{\"kind\":\"gauge\",\"resource\":\"{}\",\"metric\":\"{}\",\"value\":{}}}",
                json_escape(res),
                json_escape(metric),
                fmt_f64_json(v)
            ));
        }
        for (res, metric, h) in self.histograms() {
            let mut buckets = String::from("[");
            let mut first = true;
            for (b, &c) in h.bucket_counts().iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    buckets.push(',');
                }
                first = false;
                buckets.push_str(&format!("[{b},{c}]"));
            }
            buckets.push(']');
            out.push(format!(
                "{{\"kind\":\"hist\",\"resource\":\"{}\",\"metric\":\"{}\",\"count\":{},\
                 \"sum_ns\":\"{}\",\"max_ns\":{},\"buckets\":{buckets}}}",
                json_escape(res),
                json_escape(metric),
                h.count(),
                h.sum_ns(),
                h.max_ns()
            ));
        }
        out
    }

    /// Folds one snapshot line into the registry, registering resource
    /// and metric as needed. Merge semantics: counters **add**, gauges
    /// **last-write-wins**, histograms **merge** bucket-for-bucket.
    /// Unknown `kind`s and malformed lines are typed errors (callers
    /// decide whether to warn-and-skip); unknown bucket indices inside a
    /// histogram are ignored for forward compatibility.
    pub fn absorb_line(&mut self, line: &str) -> Result<(), String> {
        let kind = field_str(line, "kind").ok_or("snapshot line missing \"kind\"")?;
        let res = field_str(line, "resource").ok_or("snapshot line missing \"resource\"")?;
        let metric = field_str(line, "metric").ok_or("snapshot line missing \"metric\"")?;
        let rid = self.resource(&res);
        match kind.as_str() {
            "counter" => {
                let v = field_u64(line, "value").ok_or("counter line missing \"value\"")?;
                let id = self.counter(rid, &metric);
                self.add(id, v);
            }
            "gauge" => {
                let v =
                    crate::json::field_f64(line, "value").ok_or("gauge line missing \"value\"")?;
                let id = self.gauge(rid, &metric);
                self.set_gauge(id, v);
            }
            "hist" => {
                let sum: u128 = field_str(line, "sum_ns")
                    .and_then(|s| s.parse().ok())
                    .ok_or("hist line missing \"sum_ns\"")?;
                let max = field_u64(line, "max_ns").ok_or("hist line missing \"max_ns\"")?;
                let raw = field_raw(line, "buckets").ok_or("hist line missing \"buckets\"")?;
                let pairs = parse_bucket_pairs(raw)?;
                let h = LatencyHist::from_parts(pairs, sum, max);
                let id = self.histogram(rid, &metric);
                self.merge_hist(id, &h);
            }
            other => return Err(format!("unknown snapshot metric kind {other:?}")),
        }
        Ok(())
    }
}

/// Parses `[[b,c],[b,c],...]` into `(bucket, count)` pairs. Out-of-range
/// bucket indices are dropped (forward compatibility with a layout that
/// grows buckets), malformed syntax is an error.
fn parse_bucket_pairs(raw: &str) -> Result<Vec<(usize, u64)>, String> {
    let inner = raw
        .trim()
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or("buckets is not an array")?;
    let mut out = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let body = rest
            .strip_prefix('[')
            .ok_or("bucket pair is not an array")?;
        let end = body.find(']').ok_or("unterminated bucket pair")?;
        let mut nums = body[..end].split(',');
        let b: usize = nums
            .next()
            .and_then(|s| s.trim().parse().ok())
            .ok_or("bad bucket index")?;
        let c: u64 = nums
            .next()
            .and_then(|s| s.trim().parse().ok())
            .ok_or("bad bucket count")?;
        if nums.next().is_some() {
            return Err("bucket pair has more than two elements".into());
        }
        if b < N_BUCKETS {
            out.push((b, c));
        }
        rest = body[end + 1..].trim().trim_start_matches(',').trim_start();
    }
    Ok(out)
}

/// Prometheus metric-name sanitisation: `[a-zA-Z0-9_:]`, others become
/// `_`.
fn prom_sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Prometheus label-value escaping: backslash, quote, newline.
fn prom_label_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json_line;

    #[test]
    fn register_update_and_read_back() {
        let mut reg = MetricsRegistry::new();
        let ue = reg.resource("ue0");
        let c = reg.counter(ue, "intents");
        let g = reg.gauge(ue, "time_in_state_s:steady");
        let h = reg.histogram(ue, "pass_latency_ns");
        reg.add(c, 3);
        reg.add(c, 4);
        reg.set_gauge(g, 1.25);
        reg.observe_ns(h, 900);
        reg.observe_ns(h, 12_000);
        assert_eq!(reg.counter_value(c), 7);
        assert_eq!(reg.gauge_value(g), 1.25);
        assert_eq!(reg.hist(h).count(), 2);
        // Registration is idempotent: same handle back.
        assert_eq!(reg.counter(ue, "intents"), c);
        assert_eq!(reg.resource("ue0"), ue);
        assert_eq!(reg.find_counter("ue0", "intents"), Some(c));
        assert_eq!(reg.find_counter("ue1", "intents"), None);
    }

    #[test]
    fn snapshot_lines_are_valid_json_and_roundtrip() {
        let mut reg = MetricsRegistry::new();
        let ue = reg.resource("ue\"odd\\name");
        let c = reg.counter(ue, "intents");
        reg.add(c, 42);
        let g = reg.gauge(ue, "reliability");
        reg.set_gauge(g, 0.995);
        let h = reg.histogram(ue, "pass_latency_ns");
        for v in [5u64, 900, 900, 1 << 33] {
            reg.observe_ns(h, v);
        }
        let lines = reg.snapshot_jsonl();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            validate_json_line(l).expect("snapshot line must be strict JSON");
        }
        let mut back = MetricsRegistry::new();
        for l in &lines {
            back.absorb_line(l).unwrap();
        }
        let c2 = back.find_counter("ue\"odd\\name", "intents").unwrap();
        assert_eq!(back.counter_value(c2), 42);
        let h2 = back
            .find_histogram("ue\"odd\\name", "pass_latency_ns")
            .unwrap();
        assert_eq!(back.hist(h2), reg.hist(h));
        // Absorbing the same counters again adds; gauges last-write-win.
        for l in &lines {
            back.absorb_line(l).unwrap();
        }
        assert_eq!(back.counter_value(c2), 84);
        let g2 = back.find_gauge("ue\"odd\\name", "reliability").unwrap();
        assert_eq!(back.gauge_value(g2), 0.995);
        assert_eq!(back.hist(h2).count(), 2 * reg.hist(h).count());
    }

    #[test]
    fn absorb_rejects_malformed_lines_without_panicking() {
        let mut reg = MetricsRegistry::new();
        for bad in [
            "",
            "not json",
            "{\"kind\":\"counter\"}",
            "{\"kind\":\"warp\",\"resource\":\"r\",\"metric\":\"m\"}",
            "{\"kind\":\"hist\",\"resource\":\"r\",\"metric\":\"m\",\"count\":1,\
             \"sum_ns\":\"1\",\"max_ns\":1,\"buckets\":[[nope]]}",
        ] {
            assert!(
                reg.absorb_line(bad).is_err(),
                "line must be rejected: {bad}"
            );
        }
        assert!(reg.is_empty() || reg.len() <= 2); // partial registration ok, no values folded
    }

    #[test]
    fn prometheus_text_is_deterministic_and_labelled() {
        let mut reg = MetricsRegistry::new();
        for res in ["ue1", "ue0"] {
            let r = reg.resource(res);
            let c = reg.counter(r, "intents");
            reg.add(c, 1);
        }
        let r = reg.resource("fleet");
        let h = reg.histogram(r, "pass latency (ns)");
        reg.observe_ns(h, 1000);
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE mmwave_intents counter"));
        // Sorted by resource within a metric.
        let i0 = text.find("resource=\"ue0\"").unwrap();
        let i1 = text.find("resource=\"ue1\"").unwrap();
        assert!(i0 < i1);
        // Name sanitised, summary quantiles present.
        assert!(text.contains("# TYPE mmwave_pass_latency__ns_ summary"));
        assert!(text.contains("quantile=\"0.99\""));
        assert_eq!(text, reg.clone().prometheus_text());
    }

    #[test]
    fn bucket_pair_parser_handles_spacing_and_bounds() {
        assert_eq!(parse_bucket_pairs("[]").unwrap(), vec![]);
        assert_eq!(
            parse_bucket_pairs("[[1,2],[3,4]]").unwrap(),
            vec![(1, 2), (3, 4)]
        );
        assert_eq!(
            parse_bucket_pairs("[ [1, 2] , [9999, 4] ]").unwrap(),
            vec![(1, 2)] // out-of-range bucket dropped
        );
        assert!(parse_bucket_pairs("[[1,2,3]]").is_err());
        assert!(parse_bucket_pairs("nope").is_err());
    }
}
