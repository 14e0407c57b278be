//! Benchmark-side spans around calls into each layer, and the self-time
//! accounting over them.
//!
//! A span holds its name, start, end and parent; all spans of one query
//! share the query's id. Spans stay in memory until the run ends and are
//! then written out as Chrome trace-event JSON (loadable in Perfetto). A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The query this span belongs to.
    pub query: u32,
    /// The enclosing span's index in the ledger, if any.
    pub parent: Option<usize>,
    /// Layer entry point, e.g. `frontend.compile`.
    pub name: &'static str,
    /// Seconds since the ledger's epoch.
    pub start: f64,
    /// Seconds since the ledger's epoch; equals `start` while open.
    pub end: f64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Ledger {
    /// An empty ledger whose clock starts now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a span; returns its index for [`Ledger::close`] and for use as
    /// a child's parent.
    pub fn open(&mut self, query: u32, parent: Option<usize>, name: &'static str) -> usize {
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span { query, parent, name, start: now, end: now });
        self.spans.len() - 1
    }

    /// Close the span at `idx`.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        query: u32,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(query, parent, name);
        let out = f();
        self.close(idx);
        out
    }

    /// Total self seconds per span name, over every query.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        self_seconds(&self.spans)
    }

    /// The spans as Chrome trace-event JSON: one complete (`"X"`) event per
    /// span, one thread row per query, with the query id and parent index
    /// in `args`.
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                     \"args\":{{\"query\":{},\"span\":{i},\"parent\":{parent}}}}}",
                    s.name,
                    s.query,
                    s.start * 1e6,
                    (s.end - s.start) * 1e6,
                    s.query
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Self seconds per span name: each span's duration minus the union of its
/// children's intervals clipped to it.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = s.start;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - covered;
    }
    out
}
