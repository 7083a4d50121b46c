//! In-memory spans recorded around calls into the library, and the
//! evaluator wrapper that times every working `Evaluator` method.
//!
//! A span is one interval (`calls == 1`) or the sum of `calls` disjoint
//! intervals inside its parent (the evaluator's per-stage aggregates:
//! one span per method instead of one per call). Self time is a span's
//! duration minus its children's.

use cst_gpu_sim::{MetricsReport, VirtualClock};
use cst_space::{OptSpace, Setting};
use cst_stencil::StencilSpec;
use cstuner_core::{Evaluator, FaultStats};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// The request this span served (index within the run).
    pub req: u64,
    /// Layer name, e.g. `core.sampling` or `evaluator.is_valid`.
    pub name: String,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Intervals folded into this span.
    pub calls: u64,
}

/// A span recorder. Each thread owns one; `id_base` keeps ids unique
/// when their spans are merged.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: u64,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose ids start above `id_base`.
    pub fn new(epoch: Instant, id_base: u64) -> Self {
        Tracer { epoch, next: id_base, spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished interval (or an aggregate of `calls` intervals)
    /// and return its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: u64,
        req: u64,
        start: Instant,
        dur: Duration,
        calls: u64,
    ) -> u64 {
        self.next += 1;
        let span = Span {
            id: self.next,
            parent,
            req,
            name: name.to_string(),
            start_ns: self.ns(start),
            dur_ns: dur.as_nanos() as u64,
            calls,
        };
        self.spans.push(span);
        self.next
    }

    /// Open a span whose children are recorded before [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: u64, req: u64) -> u64 {
        self.record(name, parent, req, Instant::now(), Duration::ZERO, 1)
    }

    /// Close an open span, returning its duration in milliseconds.
    pub fn close(&mut self, id: u64) -> f64 {
        let now = self.ns(Instant::now());
        let span = self.spans.iter_mut().rev().find(|s| s.id == id).expect("close an open span");
        span.dur_ns = now - span.start_ns;
        span.dur_ns as f64 / 1e6
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    /// Spans with this name.
    pub spans: u64,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed self time (duration minus children), ms.
    pub self_ms: f64,
}

/// Fold spans into per-name totals.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<String, LayerTotals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns;
    }
    let mut out: BTreeMap<String, LayerTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name.clone()).or_default();
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        t.spans += 1;
        t.total_ms += s.dur_ns as f64 / 1e6;
        t.self_ms += s.dur_ns.saturating_sub(children) as f64 / 1e6;
    }
    out
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"calls\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.dur_ns, s.calls
        );
    }
    out
}

/// The timed `Evaluator` methods: the ones that do work. Accessors that
/// return a reference (`spec`, `space`, `clock`) and the counters
/// (`expired`, `unique_evaluations`, `fault_stats`) are forwarded untimed.
const METHODS: [&str; 6] = [
    "evaluator.is_valid",
    "evaluator.evaluate",
    "evaluator.evaluate_batch",
    "evaluator.prefetch",
    "evaluator.profile_offline",
    "evaluator.random_valid",
];

/// Forwards every `Evaluator` method to the wrapped evaluator and times
/// the working ones, accumulating per method until [`TimedEvaluator::flush`].
pub struct TimedEvaluator<'a> {
    inner: &'a mut dyn Evaluator,
    acc: [Cell<(u64, u64)>; METHODS.len()],
    attempted: Cell<u64>,
}

impl<'a> TimedEvaluator<'a> {
    /// Wrap an evaluator.
    pub fn new(inner: &'a mut dyn Evaluator) -> Self {
        TimedEvaluator { inner, acc: Default::default(), attempted: Cell::new(0) }
    }

    fn add(&self, m: usize, start: Instant) {
        let (ns, calls) = self.acc[m].get();
        self.acc[m].set((ns + start.elapsed().as_nanos() as u64, calls + 1));
    }

    /// Settings submitted for measurement so far (`evaluate` calls plus
    /// `evaluate_batch` items), repeats included.
    pub fn attempted(&self) -> u64 {
        self.attempted.get()
    }

    /// Emit one aggregate child span per method used since the last flush.
    pub fn flush(&self, tracer: &mut Tracer, parent: u64, req: u64) {
        let now = Instant::now();
        for (m, name) in METHODS.iter().enumerate() {
            let (ns, calls) = self.acc[m].replace((0, 0));
            if calls > 0 {
                let dur = Duration::from_nanos(ns);
                tracer.record(name, parent, req, now - dur, dur, calls);
            }
        }
    }
}

impl Evaluator for TimedEvaluator<'_> {
    fn spec(&self) -> &StencilSpec {
        self.inner.spec()
    }

    fn space(&self) -> &OptSpace {
        self.inner.space()
    }

    fn is_valid(&self, s: &Setting) -> bool {
        let t = Instant::now();
        let r = self.inner.is_valid(s);
        self.add(0, t);
        r
    }

    fn evaluate(&mut self, s: &Setting) -> f64 {
        self.attempted.set(self.attempted.get() + 1);
        let t = Instant::now();
        let r = self.inner.evaluate(s);
        self.add(1, t);
        r
    }

    fn evaluate_batch(&mut self, batch: &[Setting]) -> Vec<f64> {
        self.attempted.set(self.attempted.get() + batch.len() as u64);
        let t = Instant::now();
        let r = self.inner.evaluate_batch(batch);
        self.add(2, t);
        r
    }

    fn prefetch(&mut self, batch: &[Setting]) {
        let t = Instant::now();
        self.inner.prefetch(batch);
        self.add(3, t);
    }

    fn profile_offline(&mut self, s: &Setting) -> MetricsReport {
        let t = Instant::now();
        let r = self.inner.profile_offline(s);
        self.add(4, t);
        r
    }

    fn clock(&self) -> &VirtualClock {
        self.inner.clock()
    }

    fn expired(&self) -> bool {
        self.inner.expired()
    }

    fn unique_evaluations(&self) -> u64 {
        self.inner.unique_evaluations()
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn random_valid(&mut self) -> Setting {
        let t = Instant::now();
        let r = self.inner.random_valid();
        self.add(5, t);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(epoch, 0);
        let root = tr.record("session", 0, 1, epoch, Duration::from_millis(10), 1);
        tr.record("core.sampling", root, 1, epoch, Duration::from_millis(6), 1);
        let search = tr.record("core.search", root, 1, epoch, Duration::from_millis(3), 1);
        tr.record("evaluator.evaluate", search, 1, epoch, Duration::from_millis(2), 40);
        let t = layer_totals(&tr.spans);
        assert!((t["session"].self_ms - 1.0).abs() < 1e-9);
        assert!((t["core.search"].self_ms - 1.0).abs() < 1e-9);
        assert!((t["core.sampling"].self_ms - 6.0).abs() < 1e-9);
        assert!((t["evaluator.evaluate"].total_ms - 2.0).abs() < 1e-9);
        assert_eq!(to_jsonl(&tr.spans).lines().count(), 4);
    }
}
