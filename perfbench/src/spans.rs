//! The benchmark's own span log: one span around every call it makes
//! into a layer, kept in memory and written out when the run ends.
//!
//! Spans are recorded from outside the crates (the program itself is
//! not instrumented). A disabled log runs the closure and records
//! nothing, so untraced passes pay one branch per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use desim::Json;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `harness.run/ffbp_ref.refcpu`.
    pub name: String,
    /// Offset from the log's epoch.
    pub start: Duration,
    /// Offset from the log's epoch.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pass the span belongs to (0 = set-up and checks).
    pub pass: u32,
}

impl Span {
    /// Wall time the span covers, seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

/// In-memory span recorder.
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl SpanLog {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> SpanLog {
        SpanLog {
            on,
            epoch: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tag the spans that follow with `pass`.
    pub fn set_pass(&self, pass: u32) {
        self.inner.borrow_mut().pass = pass;
    }

    /// Run `f` inside a span named `name`. Spans opened inside `f`
    /// become its children.
    pub fn span<T>(&self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let index = {
            let mut inner = self.inner.borrow_mut();
            let index = inner.spans.len();
            let parent = inner.stack.last().copied();
            let pass = inner.pass;
            inner.spans.push(Span {
                name: name.into(),
                start: self.epoch.elapsed(),
                end: Duration::ZERO,
                parent,
                pass,
            });
            inner.stack.push(index);
            index
        };
        let out = f();
        let mut inner = self.inner.borrow_mut();
        inner.spans[index].end = self.epoch.elapsed();
        inner.stack.pop();
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Total seconds of spans named `name` in `pass`.
    pub fn total(&self, name: &str, pass: u32) -> f64 {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.pass == pass && s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Total seconds of spans whose name starts with `prefix` in
    /// `pass`.
    pub fn total_prefixed(&self, prefix: &str, pass: u32) -> f64 {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.pass == pass && s.name.starts_with(prefix))
            .map(Span::secs)
            .sum()
    }

    /// Self time per span: its duration minus the time its children
    /// cover. Children come from one thread and nest strictly, so
    /// they never overlap and their durations add.
    pub fn self_times(&self) -> Vec<f64> {
        let spans = &self.inner.borrow().spans;
        let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
        for s in spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Self time summed by span name over `passes`, largest first.
    pub fn self_time_by_name(&self, passes: &[u32]) -> Vec<(String, f64)> {
        let own = self.self_times();
        let mut by_name: BTreeMap<String, f64> = BTreeMap::new();
        for (s, t) in self.inner.borrow().spans.iter().zip(own) {
            if passes.contains(&s.pass) {
                *by_name.entry(s.name.clone()).or_default() += t;
            }
        }
        let mut rows: Vec<(String, f64)> = by_name.into_iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// The whole log as a JSON document.
    pub fn to_json(&self) -> Json {
        let own = self.self_times();
        let spans = self
            .inner
            .borrow()
            .spans
            .iter()
            .zip(own)
            .map(|(s, self_s)| {
                Json::obj()
                    .with("name", s.name.as_str())
                    .with("pass", u64::from(s.pass))
                    .with("start_s", s.start.as_secs_f64())
                    .with("end_s", s.end.as_secs_f64())
                    .with("self_s", self_s)
                    .with(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                    )
            })
            .collect();
        Json::obj().with("spans", Json::Arr(spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(ms) {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let log = SpanLog::new(true);
        log.set_pass(3);
        log.span("outer", || {
            busy(5);
            log.span("inner", || busy(10));
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.pass == 3));
        let own = log.self_times();
        assert!((own[0] + own[1] - spans[0].secs()).abs() < 1e-9);
        assert!(own[0] < spans[0].secs() - 0.009);
        assert!(log.total("inner", 3) >= 0.010);
        assert_eq!(log.total("inner", 1), 0.0);
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let log = SpanLog::new(false);
        assert_eq!(log.span("x", || 7), 7);
        assert!(log.spans().is_empty());
    }
}
