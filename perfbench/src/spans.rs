//! In-memory spans recorded around calls into the library's public
//! functions, their self times, and their Chrome trace-event export.
//!
//! A span is (name, start, end, parent, request id). Spans stay in memory
//! while a traced replay runs and are written out once it ends. A span's
//! self time is its duration minus the part of it that its children cover;
//! a layer's cost is the self time of the spans named after it.

use std::time::Instant;

use sgl_observe::Json;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.run`.
    pub name: &'static str,
    /// Start, ns since the tracer's base instant.
    pub start_ns: u64,
    /// End, ns since the tracer's base instant.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (operation) the span belongs to.
    pub req: u64,
}

/// Span recorder with one clock base.
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the base to `t`.
    #[must_use]
    pub fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.base).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = self.ns_at(Instant::now());
        self.record(name, now, now, parent, req)
    }

    /// Ends span `i` now.
    pub fn close(&mut self, i: usize) {
        self.spans[i].end_ns = self.ns_at(Instant::now());
    }

    /// Records a finished span, returning its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                run = match run {
                    Some((a, b)) if lo <= b => Some((a, b.max(hi))),
                    Some((a, b)) => {
                        covered += b - a;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((a, b)) = run {
                covered += b - a;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// One row of the per-layer self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Spans of that name.
    pub count: usize,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Median self time of one span, ns.
    pub p50_self_ns: u64,
}

/// Groups spans by name into self-time rows, largest total first.
#[must_use]
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let mut by_name: Vec<(&'static str, Vec<u64>)> = Vec::new();
    for (s, &t) in spans.iter().zip(&selfs) {
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, v)) => v.push(t),
            None => by_name.push((s.name, vec![t])),
        }
    }
    let mut rows: Vec<LayerRow> = by_name
        .into_iter()
        .map(|(name, mut v)| {
            v.sort_unstable();
            LayerRow {
                name,
                count: v.len(),
                self_ns: v.iter().sum(),
                p50_self_ns: v[crate::stats::rank(v.len(), 0.5)],
            }
        })
        .collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// Chrome trace-event JSON (`ph: "X"` complete events, one track per
/// request), the format `trace_check` validates and Perfetto opens.
#[must_use]
pub fn chrome_json(spans: &[Span]) -> Json {
    let us = |ns: u64| Json::Num(ns as f64 / 1000.0);
    let events = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", Json::Str(s.name.into())),
                ("cat", Json::Str("perfbench".into())),
                ("ph", Json::Str("X".into())),
                ("ts", us(s.start_ns)),
                ("dur", us(s.end_ns - s.start_ns)),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(s.req + 1)),
                ("args", Json::obj(vec![("trace_id", Json::UInt(s.req + 1))])),
            ])
        })
        .collect();
    Json::obj(vec![("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("engine.run", 10, 40, Some(0)),
            span("protocol.render", 50, 70, Some(0)),
            span("sim", 15, 35, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 20, 20]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("compile", 100, 200, None),
            span("core.build", 90, 150, Some(0)),
            span("cache.compile_load", 140, 260, Some(0)),
        ];
        // Children cover [100, 200) once after clipping: no self time left,
        // and never a negative one.
        assert_eq!(self_times(&spans)[0], 0);
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 60, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 30 - 10);
    }

    #[test]
    fn layer_table_groups_by_name() {
        let spans = vec![
            span("request", 0, 100, None),
            span("engine.run", 0, 60, Some(0)),
            span("request", 100, 150, None),
            span("engine.run", 100, 140, Some(2)),
        ];
        let rows = layer_table(&spans);
        assert_eq!(rows[0].name, "engine.run");
        assert_eq!((rows[0].count, rows[0].self_ns), (2, 100));
        assert_eq!(rows[0].p50_self_ns, 40);
        assert_eq!((rows[1].name, rows[1].self_ns), ("request", 50));
    }

    #[test]
    fn chrome_export_validates() {
        let mut t = Tracer::new();
        let root = t.record("request", 1_000, 9_000, None, 3);
        t.record("protocol.parse", 1_000, 2_000, Some(root), 3);
        t.record("engine.run", 2_000, 8_500, Some(root), 3);
        let summary = sgl_observe::validate_chrome(&chrome_json(t.spans())).unwrap();
        assert_eq!(summary.events, 3);
        assert_eq!(summary.tracks, 1);
    }
}
