//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (the program itself carries no tracing).
//! They stay in memory until the run ends, then are written out as
//! JSON lines and folded into per-name self times.

use ihw_bench::runner::report::Stopwatch;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One recorded call: `start`/`end` are seconds since the tracer's
/// epoch; `op` is the request or pass the call belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub op: u64,
    pub start: f64,
    pub end: f64,
}

/// A disabled tracer records nothing and reads no clock.
pub struct Tracer {
    enabled: bool,
    epoch: Stopwatch,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Stopwatch::start(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span id to
    /// pass as the parent of nested spans. Reads no clock when disabled.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        self.timed(name, parent, op, f).0
    }

    /// [`Tracer::span`] that always times the call and returns its
    /// seconds, for measurements that need the duration either way.
    pub fn timed<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> (R, f64) {
        let id = self
            .enabled
            .then(|| self.next_id.fetch_add(1, Ordering::Relaxed));
        let start = self.epoch.elapsed_seconds();
        let out = f(id);
        let end = self.epoch.elapsed_seconds();
        if let Some(id) = id {
            self.spans
                .lock()
                .expect("span recorder poisoned by a panicking caller")
                .push(Span {
                    id,
                    parent,
                    name,
                    op,
                    start,
                    end,
                });
        }
        (out, end - start)
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("span recorder poisoned by a panicking caller");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Total self time per span name: each span's duration minus the part
/// of it that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cur: Option<(f64, f64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        covered += cur.map_or(0.0, |(ca, cb)| cb - ca);
                        cur = Some((a, b));
                    }
                }
            }
            covered += cur.map_or(0.0, |(ca, cb)| cb - ca);
        }
        *out.entry(s.name).or_insert(0.0) += (s.end - s.start - covered).max(0.0);
    }
    out
}

/// Spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_s\":{:.9},\"end_s\":{:.9}}}\n",
            s.id, s.name, s.op, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "pass", 0.0, 10.0),
            span(2, Some(1), "a", 1.0, 4.0),
            span(3, Some(1), "a", 3.0, 5.0),
            span(4, Some(1), "b", 7.0, 8.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"], 5.0);
        assert_eq!(t["a"], 5.0);
        assert_eq!(t["b"], 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 0, |p| p), None);
        assert!(t.into_spans().is_empty());
    }
}
