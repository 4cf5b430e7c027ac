//! Host-time spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span's *self* time is its duration minus the time of the spans
//! nested inside it, so summing self time over every span name never
//! counts an interval twice. Spans and counts are kept per thread in a
//! [`Tracer`] and merged when the run ends.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Calls recorded.
    pub calls: u64,
    /// Duration minus nested spans, in nanoseconds.
    pub self_ns: u64,
    /// Whole duration, nested spans included, in nanoseconds.
    pub total_ns: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// Nested-span time accumulated by each open span.
    open: Vec<u64>,
    spans: BTreeMap<Cow<'static, str>, SpanStat>,
    counts: BTreeMap<Cow<'static, str>, u64>,
    /// Wall time of the traced sections, the denominator of coverage.
    wall_ns: u64,
}

/// One thread's span and count recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    inner: RefCell<Inner>,
}

impl Tracer {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.inner.borrow_mut().open.push(0);
        let start = Instant::now();
        let out = f();
        let ns = elapsed_ns(start);
        let mut inner = self.inner.borrow_mut();
        let nested = inner.open.pop().expect("span stack balanced");
        if let Some(parent) = inner.open.last_mut() {
            *parent += ns;
        }
        let stat = inner.spans.entry(Cow::Borrowed(name)).or_default();
        stat.calls += 1;
        stat.self_ns += ns.saturating_sub(nested);
        stat.total_ns += ns;
        out
    }

    /// Runs `f` as a traced section: its wall time is what the spans
    /// inside it are expected to cover.
    pub fn section<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.inner.borrow_mut().wall_ns += elapsed_ns(start);
        out
    }

    /// Adds `n` to the count called `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self
            .inner
            .borrow_mut()
            .counts
            .entry(Cow::Borrowed(name))
            .or_default() += n;
    }

    /// Adds totals recorded elsewhere (another process) under `name`.
    pub fn add_span(&self, name: &str, stat: SpanStat) {
        let mut inner = self.inner.borrow_mut();
        let s = inner.spans.entry(Cow::Owned(name.to_owned())).or_default();
        s.calls += stat.calls;
        s.self_ns += stat.self_ns;
        s.total_ns += stat.total_ns;
    }

    /// Adds a count recorded elsewhere (another process) under `name`.
    pub fn add_count(&self, name: &str, n: u64) {
        *self
            .inner
            .borrow_mut()
            .counts
            .entry(Cow::Owned(name.to_owned()))
            .or_default() += n;
    }

    /// Adds traced wall time recorded elsewhere (another process).
    pub fn add_wall(&self, ns: u64) {
        self.inner.borrow_mut().wall_ns += ns;
    }

    /// Adds another thread's spans, counts and traced wall time.
    pub fn merge(&self, other: Tracer) {
        let other = other.inner.into_inner();
        for (name, stat) in other.spans {
            self.add_span(&name, stat);
        }
        for (name, n) in other.counts {
            self.add_count(&name, n);
        }
        self.add_wall(other.wall_ns);
    }

    /// Totals for span `name` (zero when it never ran).
    #[must_use]
    pub fn stat(&self, name: &str) -> SpanStat {
        self.inner
            .borrow()
            .spans
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// The count called `name` (zero when never counted).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.inner.borrow().counts.get(name).copied().unwrap_or(0)
    }

    /// Wall time of all traced sections, in nanoseconds.
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        self.inner.borrow().wall_ns
    }

    /// Self time summed over every span, in nanoseconds.
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        self.inner.borrow().spans.values().map(|s| s.self_ns).sum()
    }

    /// Every span name with its totals, in name order.
    #[must_use]
    pub fn spans(&self) -> Vec<(String, SpanStat)> {
        self.inner
            .borrow()
            .spans
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Every count with its value, in name order.
    #[must_use]
    pub fn counts(&self) -> Vec<(String, u64)> {
        self.inner
            .borrow()
            .counts
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }
}

/// Nanoseconds since `start`, saturating at `u64::MAX`.
#[must_use]
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = Instant::now();
        while elapsed_ns(start) < ns {}
    }

    #[test]
    fn self_time_excludes_nested_spans() {
        let t = Tracer::new();
        t.section(|| {
            t.span("outer", || {
                spin(200_000);
                t.span("inner", || spin(400_000));
            });
        });
        let outer = t.stat("outer");
        let inner = t.stat("inner");
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.total_ns >= outer.self_ns + inner.total_ns);
        assert!(inner.self_ns >= 400_000);
        assert!(t.self_ns() <= t.wall_ns());
    }

    #[test]
    fn merge_adds_everything() {
        let a = Tracer::new();
        let b = Tracer::new();
        a.span("x", || ());
        b.span("x", || ());
        b.count("n", 3);
        a.merge(b);
        assert_eq!(a.stat("x").calls, 2);
        assert_eq!(a.get("n"), 3);
    }
}
