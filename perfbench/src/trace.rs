//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (and rebuilt from the engine's stage events); nothing inside the
//! program is instrumented. When tracing is off every call is a no-op, so
//! the untraced run measures the program alone.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; `0` means "no span".
pub type SpanId = usize;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span id (1-based, unique within the run).
    pub id: SpanId,
    /// Parent span, `0` for the root.
    pub parent: SpanId,
    /// The span that caused this one (a plan dependency), `0` if none.
    pub cause: SpanId,
    /// Layer (crate) the span's time belongs to.
    pub layer: &'static str,
    /// Operation name.
    pub name: String,
    /// Start, seconds since the tracer's epoch.
    pub start: f64,
    /// End, seconds since the tracer's epoch.
    pub end: f64,
}

/// Span recorder; disabled tracers record nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the epoch, for spans whose ends are observed
    /// separately (engine stage events).
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Reserves an id for a span that will be closed later with
    /// [`Tracer::record`]; `0` when disabled.
    pub fn reserve(&self) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(SpanRec {
            id: 0,
            parent: 0,
            cause: 0,
            layer: "",
            name: String::new(),
            start: 0.0,
            end: 0.0,
        });
        spans.len()
    }

    /// Fills in a span reserved with [`Tracer::reserve`].
    pub fn record(&self, span: SpanRec) {
        if !self.enabled || span.id == 0 {
            return;
        }
        let mut spans = self.spans.lock().expect("span list poisoned");
        let slot = span.id - 1;
        spans[slot] = span;
    }

    /// Closes, now, a span reserved with [`Tracer::reserve`] that began
    /// at `start`.
    pub fn close(&self, id: SpanId, parent: SpanId, layer: &'static str, name: &str, start: f64) {
        self.record(SpanRec {
            id,
            parent,
            cause: 0,
            layer,
            name: name.to_string(),
            start,
            end: self.now(),
        });
    }

    /// Runs `f` inside a span of `layer`/`name` under `parent`.
    pub fn span<T>(
        &self,
        parent: SpanId,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.reserve();
        let start = self.now();
        let out = f(id);
        self.close(id, parent, layer, name, start);
        out
    }

    /// Every recorded span, in id order.
    pub fn spans(&self) -> Vec<SpanRec> {
        let spans = self.spans.lock().expect("span list poisoned");
        spans.iter().filter(|s| s.id != 0).cloned().collect()
    }
}

/// Splits wall time among layers: each instant goes to the innermost
/// spans open at that instant (those with no open child), shared equally
/// when several run concurrently. For sequentially nested spans this is
/// the span's duration minus the time its children cover; in every case
/// the layer totals add up to the wall time the root spans cover.
pub fn self_time_by_layer(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let by_id: BTreeMap<SpanId, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
    // (time, is_start, id): ends sort before starts at the same instant.
    let mut events: Vec<(f64, bool, SpanId)> = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        events.push((s.start, true, s.id));
        events.push((s.end.max(s.start), false, s.id));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut open_children: BTreeMap<SpanId, usize> = BTreeMap::new();
    let mut innermost: Vec<SpanId> = Vec::new();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut prev = events.first().map_or(0.0, |e| e.0);
    for (t, is_start, id) in events {
        if t > prev && !innermost.is_empty() {
            let share = (t - prev) / innermost.len() as f64;
            for leaf in &innermost {
                *out.entry(by_id[leaf].layer).or_insert(0.0) += share;
            }
        }
        prev = t;
        let parent = by_id[&id].parent;
        let parent_open = open_children.contains_key(&parent);
        if is_start {
            open_children.insert(id, 0);
            innermost.push(id);
            if parent_open {
                let n = open_children.get_mut(&parent).expect("parent is open");
                *n += 1;
                innermost.retain(|&x| x != parent);
            }
        } else {
            open_children.remove(&id);
            innermost.retain(|&x| x != id);
            if parent_open {
                let n = open_children.get_mut(&parent).expect("parent is open");
                *n -= 1;
                if *n == 0 {
                    innermost.push(parent);
                }
            }
        }
    }
    out
}

/// Renders spans as Trace Event Format JSON (complete `X` events), which
/// trace viewers open as a timeline. Overlapping spans get separate
/// tracks so concurrent engine stages show side by side.
pub fn to_trace_event_json(spans: &[SpanRec]) -> String {
    let mut order: Vec<&SpanRec> = spans.iter().collect();
    order.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
    // Each track holds a stack of span ends; a span fits on the first
    // track whose open spans all enclose it.
    let mut tracks: Vec<Vec<f64>> = Vec::new();
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in order.iter().enumerate() {
        let tid = place_on_track(&mut tracks, s.start, s.end);
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"cause\":{}}}}}",
            symclust_engine::json::escape(&s.name),
            s.layer,
            s.start * 1e6,
            (s.end - s.start).max(0.0) * 1e6,
            tid,
            s.id,
            s.parent,
            s.cause
        ));
    }
    out.push_str("\n]}\n");
    out
}

fn place_on_track(tracks: &mut Vec<Vec<f64>>, start: f64, end: f64) -> usize {
    for (tid, stack) in tracks.iter_mut().enumerate() {
        while stack.last().is_some_and(|&e| e <= start) {
            stack.pop();
        }
        if stack.last().is_none_or(|&e| end <= e) {
            stack.push(end);
            return tid + 1;
        }
    }
    tracks.push(vec![end]);
    tracks.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, layer: &'static str, start: f64, end: f64) -> SpanRec {
        SpanRec {
            id,
            parent,
            cause: 0,
            layer,
            name: format!("s{id}"),
            start,
            end,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn nested_spans_give_duration_minus_children() {
        // root [0,10] > engine [1,9] > core [2,4], cluster [5,8] > eval [6,7]
        let spans = vec![
            span(1, 0, "bench", 0.0, 10.0),
            span(2, 1, "engine", 1.0, 9.0),
            span(3, 2, "core", 2.0, 4.0),
            span(4, 2, "cluster", 5.0, 8.0),
            span(5, 4, "eval", 6.0, 7.0),
        ];
        let t = self_time_by_layer(&spans);
        assert!(close(t["bench"], 2.0));
        assert!(close(t["engine"], 3.0));
        assert!(close(t["core"], 2.0));
        assert!(close(t["cluster"], 2.0));
        assert!(close(t["eval"], 1.0));
        assert!(close(t.values().sum::<f64>(), 10.0));
    }

    #[test]
    fn concurrent_children_share_wall_time() {
        // Two stages overlap on [2,4]; the layers still add up to wall.
        let spans = vec![
            span(1, 0, "engine", 0.0, 6.0),
            span(2, 1, "core", 1.0, 4.0),
            span(3, 1, "cluster", 2.0, 5.0),
        ];
        let t = self_time_by_layer(&spans);
        assert!(close(t["engine"], 2.0));
        assert!(close(t["core"], 2.0));
        assert!(close(t["cluster"], 2.0));
        assert!(close(t.values().sum::<f64>(), 6.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let v = tr.span(0, "core", "x", |id| id + 41);
        assert_eq!(v, 41);
        assert!(tr.spans().is_empty());
        let tr = Tracer::new(true);
        tr.span(0, "core", "outer", |id| {
            tr.span(id, "eval", "inner", |_| ())
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
    }

    #[test]
    fn overlapping_spans_land_on_separate_tracks() {
        let spans = vec![
            span(1, 0, "engine", 0.0, 6.0),
            span(2, 1, "core", 1.0, 4.0),
            span(3, 1, "cluster", 2.0, 5.0),
        ];
        let json = to_trace_event_json(&spans);
        assert!(json.contains("\"cat\":\"core\",\"ph\":\"X\",\"ts\":1000000.000,\"dur\":3000000.000,\"pid\":1,\"tid\":1"));
        assert!(json.contains("\"cat\":\"cluster\",\"ph\":\"X\",\"ts\":2000000.000,\"dur\":3000000.000,\"pid\":1,\"tid\":2"));
    }
}
