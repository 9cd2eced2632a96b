//! In-memory span log for the traced run: one span per call the
//! benchmark makes into a layer (name, start, end, parent, and the id of
//! the link, fleet or pass it belongs to). Spans are written out once, at
//! exit; per-layer busy and self times and the closure check are computed
//! from the log.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One closed (or still open) span. Times are nanoseconds since the log's
/// epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Link, fleet or pass id; children inherit their parent's.
    pub id: u32,
}

/// Per-layer totals over a span log.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Sum of span durations minus the time their child spans cover.
    pub self_ns: u64,
}

/// The log. Spans nest strictly: a span opened while another is open is
/// its child and must close first.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
        }
    }

    fn now_ns(&self) -> u64 {
        crate::wrap::elapsed_ns(self.epoch)
    }

    /// Opens a child of the innermost open span, inheriting its id.
    pub fn open(&mut self, name: &'static str) {
        let id = self.open.last().map_or(0, |&p| self.spans[p as usize].id);
        self.open_id(name, id);
    }

    /// Opens a span with an explicit id.
    pub fn open_id(&mut self, name: &'static str, id: u32) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let i = self.open.pop().expect("close without a matching open");
        self.spans[i as usize].end_ns = self.now_ns();
    }

    /// Nanoseconds since the epoch (the wall clock spans are measured on).
    pub fn wall_ns(&self) -> u64 {
        self.now_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Busy and self time per span name.
    ///
    /// Fails when the log breaks nesting: a span left open, a child
    /// outside its parent, or children covering more than their parent.
    pub fn layers(&self) -> Result<BTreeMap<&'static str, LayerTime>, String> {
        if !self.open.is_empty() {
            return Err(format!("{} spans left open", self.open.len()));
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                let p = &self.spans[s.parent as usize];
                if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                    return Err(format!(
                        "span {} lies outside its parent {}",
                        s.name, p.name
                    ));
                }
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let self_ns = dur
                .checked_sub(c)
                .ok_or_else(|| format!("children of span {} overlap", s.name))?;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.busy_ns += dur;
            e.self_ns += self_ns;
        }
        Ok(out)
    }

    /// Total duration of the top-level spans.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes the log as JSON lines.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_closes_over_nested_spans() {
        let mut log = SpanLog::new();
        log.open_id("link", 7);
        log.open("tick");
        log.open("probe");
        log.close();
        log.close();
        log.open("tick");
        log.close();
        log.close();
        log.open_id("replay", 9);
        log.close();
        let layers = log.layers().expect("well nested");
        assert_eq!(layers["tick"].count, 2);
        assert_eq!(layers["probe"].count, 1);
        let self_sum: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, log.root_ns());
        assert!(log
            .spans()
            .iter()
            .filter(|s| s.name != "replay")
            .all(|s| s.id == 7));
        let mut out = Vec::new();
        log.write_jsonl(&mut out).expect("in-memory write");
        assert_eq!(String::from_utf8(out).expect("utf8").lines().count(), 5);
    }

    #[test]
    fn open_span_fails_the_closure_check() {
        let mut log = SpanLog::new();
        log.open_id("link", 0);
        assert!(log.layers().is_err());
    }
}
