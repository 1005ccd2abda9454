//! In-memory spans for the traced mode, recorded around calls into the
//! program's public functions and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `id` groups the spans of one mine or one request;
/// `parent` indexes the enclosing span in the same [`Spans`] log.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: String,
    pub parent: Option<usize>,
    pub start_ms: f64,
    pub end_ms: f64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// A span log with one clock origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// Per span name: how many spans, their summed duration and summed self
/// time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Milliseconds from this log's origin to `at`.
    pub fn offset_ms(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e3
    }

    /// Record a finished span and return its index (for children).
    pub fn record(
        &mut self,
        id: u64,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            id,
            name: name.to_string(),
            parent,
            start_ms: self.offset_ms(start),
            end_ms: self.offset_ms(end),
        };
        self.push(span)
    }

    /// Record a span given as offsets from this log's origin.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Move every span of `other`, recorded against the same origin, into
    /// this log, re-basing its parent indices.
    pub fn absorb(&mut self, other: Spans) {
        debug_assert_eq!(self.origin, other.origin, "span logs share one origin");
        let base = self.spans.len();
        for mut span in other.spans {
            span.parent = span.parent.map(|p| p + base);
            self.spans.push(span);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The self time of span `i`: its duration minus the part of its
    /// interval that its direct children cover.
    pub fn self_ms(&self, i: usize) -> f64 {
        let parent = &self.spans[i];
        let mut covered: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| (s.start_ms.max(parent.start_ms), s.end_ms.min(parent.end_ms)))
            .filter(|(a, b)| b > a)
            .collect();
        covered.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut union = 0.0;
        let mut current: Option<(f64, f64)> = None;
        for (a, b) in covered {
            current = match current {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    union += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = current {
            union += cb - ca;
        }
        parent.duration_ms() - union
    }

    /// Totals and self times grouped by span name.
    pub fn by_name(&self) -> BTreeMap<String, NameTotals> {
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let t = out.entry(span.name.clone()).or_default();
            t.count += 1;
            t.total_ms += span.duration_ms();
            t.self_ms += self.self_ms(i);
        }
        out
    }

    /// The log as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"index\":{i},\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ms\":{:.4},\"end_ms\":{:.4},\"self_ms\":{:.4}}}",
                s.id,
                s.name,
                s.start_ms,
                s.end_ms,
                self.self_ms(i)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ms: f64, end_ms: f64) -> Span {
        Span {
            id: 1,
            name: name.to_string(),
            parent,
            start_ms,
            end_ms,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = Spans::new(Instant::now());
        let root = log.push(span("mine", None, 0.0, 100.0));
        log.push(span("k1", Some(root), 0.0, 30.0));
        // Overlapping children are not double-counted.
        log.push(span("k2", Some(root), 20.0, 60.0));
        // A child sticking out of its parent only covers the overlap.
        log.push(span("k3", Some(root), 90.0, 120.0));
        assert_eq!(log.self_ms(root), 100.0 - 60.0 - 10.0);
        assert_eq!(log.self_ms(1), 30.0);
        let by_name = log.by_name();
        assert_eq!(by_name["mine"].count, 1);
        assert_eq!(by_name["k2"].total_ms, 40.0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Spans::new(origin);
        a.push(span("x", None, 0.0, 1.0));
        let mut b = Spans::new(origin);
        let p = b.push(span("y", None, 0.0, 2.0));
        b.push(span("z", Some(p), 0.5, 1.0));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_ms(1), 1.5);
        assert!(a.to_jsonl().lines().count() == 3);
    }
}
