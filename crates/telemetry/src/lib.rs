//! Deterministic tracing, counters and a JSONL run-journal for the
//! csTuner pipeline.
//!
//! Every stage of the tuning pipeline (dataset collection, grouping,
//! sampling, codegen, search) and every hot-path component (evaluator,
//! memo, fault machinery, GA engine) reports into a [`Telemetry`] handle.
//! A handle is either *enabled* — backed by a sink that records a
//! monotonically sequenced stream of JSON events — or the [`Telemetry::noop`]
//! handle, whose every method returns immediately without allocating, so
//! instrumented code costs nothing when journaling is off and the engine's
//! byte-identical determinism contract is untouched.
//!
//! Events record **virtual-clock** quantities (seconds on the
//! `cst-gpu-sim` tuning clock — bit-deterministic for a fixed seed) and
//! **wall-clock** quantities (host milliseconds — inherently noisy). All
//! wall fields are suffixed `wall_*` and serialized last in each record,
//! so [`strip_wall_fields`] reduces a journal to its deterministic core:
//! two same-seed runs are byte-identical after stripping.
//!
//! The schema is versioned ([`SCHEMA_VERSION`]). [`journal::read`] is the
//! one journal reader: it parses each line once, checks it against the
//! schema and folds it in the same pass. [`schema::validate_journal`]
//! keeps its verdict; [`report::render_report`] renders the fold as the
//! per-stage/convergence/counter summary behind `cstuner report`.

pub mod journal;
pub mod json;
pub mod metrics;
pub mod report;
pub mod schema;

use json::write_f64;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Version stamped into every journal's `journal_start` record. Bump when
/// an event type or required field changes incompatibly.
///
/// History: v1 — initial registry; v2 — `iteration` records gained a
/// required `evals` field (cumulative unique evaluations), so cross-run
/// summaries can report evals-to-milestone convergence.
pub const SCHEMA_VERSION: u64 = 2;

/// Typed hot-path counters. Each is flushed into the journal's single
/// `counters` record by [`Telemetry::finish`] under its [`Counter::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// `evaluate` calls, including memoized repeats.
    EvalsAttempted,
    /// Fresh (non-memoized) evaluations committed to the clock.
    EvalsCommitted,
    /// Evaluator-level memo hits (repeats returned for free).
    MemoHits,
    /// Evaluator-level memo misses (fresh model evaluations).
    MemoMisses,
    /// Injected compile errors observed by the measurement path.
    FaultCompile,
    /// Injected launch failures.
    FaultLaunch,
    /// Injected timeouts.
    FaultTimeout,
    /// Timing outliers applied to successful measurements.
    FaultOutliers,
    /// Retries after a failed attempt.
    FaultRetries,
    /// Settings quarantined after exhausting retries.
    FaultQuarantined,
    /// GA generations stepped.
    GaGenerations,
    /// PMNF models fitted by the sampling stage.
    PmnfFits,
    /// Sampled combinations kept by the quantile cut.
    SamplesAccepted,
    /// Sampled combinations rejected by the quantile cut.
    SamplesRejected,
}

impl Counter {
    /// Every counter, in journal order.
    pub const ALL: [Counter; 14] = [
        Counter::EvalsAttempted,
        Counter::EvalsCommitted,
        Counter::MemoHits,
        Counter::MemoMisses,
        Counter::FaultCompile,
        Counter::FaultLaunch,
        Counter::FaultTimeout,
        Counter::FaultOutliers,
        Counter::FaultRetries,
        Counter::FaultQuarantined,
        Counter::GaGenerations,
        Counter::PmnfFits,
        Counter::SamplesAccepted,
        Counter::SamplesRejected,
    ];

    /// The field name this counter serializes under.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EvalsAttempted => "evals_attempted",
            Counter::EvalsCommitted => "evals_committed",
            Counter::MemoHits => "memo_hits",
            Counter::MemoMisses => "memo_misses",
            Counter::FaultCompile => "fault_compile",
            Counter::FaultLaunch => "fault_launch",
            Counter::FaultTimeout => "fault_timeout",
            Counter::FaultOutliers => "fault_outliers",
            Counter::FaultRetries => "fault_retries",
            Counter::FaultQuarantined => "fault_quarantined",
            Counter::GaGenerations => "ga_generations",
            Counter::PmnfFits => "pmnf_fits",
            Counter::SamplesAccepted => "samples_accepted",
            Counter::SamplesRejected => "samples_rejected",
        }
    }

    fn index(self) -> usize {
        Counter::ALL.iter().position(|&c| c == self).expect("counter in ALL")
    }
}

/// Typed value-distribution histograms (log₁₀ buckets), flushed into the
/// `counters` record as `hist_<name>` objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Residual standard error of each PMNF fit (prediction error).
    PmnfRse,
    /// Committed kernel measurements, milliseconds.
    EvalTimeMs,
}

impl Hist {
    /// Every histogram, in journal order.
    pub const ALL: [Hist; 2] = [Hist::PmnfRse, Hist::EvalTimeMs];

    /// The field name this histogram serializes under (sans `hist_`).
    pub fn name(self) -> &'static str {
        match self {
            Hist::PmnfRse => "pmnf_rse",
            Hist::EvalTimeMs => "eval_time_ms",
        }
    }

    fn index(self) -> usize {
        Hist::ALL.iter().position(|&h| h == self).expect("hist in ALL")
    }
}

const HIST_BUCKETS: usize = 16;

/// A fixed-shape log₁₀ histogram: bucket `i` covers `[10^(i-8), 10^(i-7))`,
/// clamped at the ends. Only finite observations are recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSnapshot {
    /// Finite observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (`INFINITY` when empty).
    pub min: f64,
    /// Largest observation (`NEG_INFINITY` when empty).
    pub max: f64,
    /// Per-bucket counts.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistSnapshot {
    pub(crate) fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let bucket = if v <= 0.0 {
            0
        } else {
            (v.log10().floor() as i64 + 8).clamp(0, HIST_BUCKETS as i64 - 1) as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// A field value of a journal event.
#[derive(Debug, Clone, Copy)]
pub enum FieldValue<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point; non-finite serializes as `null`.
    F64(f64),
    /// String (JSON-escaped).
    Str(&'a str),
    /// Boolean.
    Bool(bool),
    /// Array of floats; non-finite elements serialize as `null`.
    F64s(&'a [f64]),
}

macro_rules! impl_from_field {
    ($($t:ty => $variant:ident as $as:ty),* $(,)?) => {
        $(impl<'a> From<$t> for FieldValue<'a> {
            fn from(v: $t) -> Self { FieldValue::$variant(v as $as) }
        })*
    };
}
impl_from_field!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
                 i64 => I64 as i64, i32 => I64 as i64, f64 => F64 as f64);

impl<'a> From<&'a str> for FieldValue<'a> {
    fn from(v: &'a str) -> Self {
        FieldValue::Str(v)
    }
}
impl<'a> From<&'a String> for FieldValue<'a> {
    fn from(v: &'a String) -> Self {
        FieldValue::Str(v)
    }
}
impl<'a> From<bool> for FieldValue<'a> {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl<'a> From<&'a [f64]> for FieldValue<'a> {
    fn from(v: &'a [f64]) -> Self {
        FieldValue::F64s(v)
    }
}
impl<'a> From<&'a Vec<f64>> for FieldValue<'a> {
    fn from(v: &'a Vec<f64>) -> Self {
        FieldValue::F64s(v)
    }
}

/// One named field of a journal event.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    name: &'static str,
    value: FieldValue<'a>,
}

impl<'a> Field<'a> {
    /// Build a field.
    pub fn new(name: &'static str, value: FieldValue<'a>) -> Self {
        Field { name, value }
    }
}

/// Emit a journal event: `event!(tel, "iteration", iteration = 3, v_s = 1.5)`.
///
/// Field values go through [`FieldValue::from`], so integers, floats,
/// `&str`, bools and `&[f64]` all work. On a noop handle the event is
/// dropped without serializing (field *expressions* are still evaluated —
/// guard expensive ones with [`Telemetry::enabled`]).
#[macro_export]
macro_rules! event {
    ($tel:expr, $ty:expr $(, $name:ident = $val:expr)* $(,)?) => {
        $tel.emit($ty, &[$($crate::Field::new(stringify!($name), $crate::FieldValue::from($val))),*])
    };
}

enum SinkKind {
    Memory(Vec<String>),
    File(std::io::BufWriter<std::fs::File>),
    /// Tee: every record line is handed to a callback as it is emitted
    /// (and not stored). The serving layer uses this to stream a live
    /// session's journal to a client while the run is still in flight.
    Tee(Box<dyn FnMut(&str) + Send>),
}

struct Inner {
    seq: u64,
    sink: SinkKind,
    counters: [u64; Counter::ALL.len()],
    hists: [HistSnapshot; Hist::ALL.len()],
    epoch: Instant,
}

impl Inner {
    fn write_line(&mut self, line: String) {
        match &mut self.sink {
            SinkKind::Memory(lines) => lines.push(line),
            SinkKind::File(w) => {
                let _ = writeln!(w, "{line}");
            }
            SinkKind::Tee(cb) => cb(&line),
        }
    }
}

/// The telemetry handle threaded through the pipeline.
///
/// Cloning is cheap and clones share the same sink, sequence counter and
/// counters — the pipeline, the evaluator and the GA engine all append to
/// one totally ordered stream. [`Telemetry::noop`] is the disabled handle:
/// every method on it returns immediately and allocates nothing.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<Mutex<Inner>>>);

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.enabled()).finish()
    }
}

impl Telemetry {
    /// The disabled handle: no sink, no allocation, no observable effect.
    pub fn noop() -> Self {
        Telemetry(None)
    }

    /// Whether events are being recorded. Use to guard field expressions
    /// that would allocate (e.g. formatting a setting).
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    fn start(sink: SinkKind) -> Self {
        let tel = Telemetry(Some(Arc::new(Mutex::new(Inner {
            seq: 0,
            sink,
            counters: [0; Counter::ALL.len()],
            hists: [HistSnapshot::default(); Hist::ALL.len()],
            epoch: Instant::now(),
        }))));
        event!(tel, "journal_start", schema = SCHEMA_VERSION, source = "cstuner");
        tel
    }

    /// An enabled handle recording into memory (tests, report rendering).
    pub fn in_memory() -> Self {
        Self::start(SinkKind::Memory(Vec::new()))
    }

    /// An enabled handle appending JSONL records to `path` (truncates an
    /// existing file).
    pub fn to_file(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::start(SinkKind::File(std::io::BufWriter::new(file))))
    }

    /// An enabled handle that tees every record line into `sink` the
    /// moment it is emitted (under the telemetry lock, so the callback
    /// observes lines in exact `seq` order). Nothing is stored in the
    /// handle itself — the callback owns the stream. This is the
    /// serving-layer hook: a daemon session streams its journal to a
    /// client while the run is still in flight.
    pub fn to_sink(sink: impl FnMut(&str) + Send + 'static) -> Self {
        Self::start(SinkKind::Tee(Box::new(sink)))
    }

    /// Emit one event. `ty` becomes the record's `"type"`; a sequence
    /// number and a trailing `wall_ms` field are added automatically.
    /// Prefer the [`event!`] macro at call sites.
    pub fn emit(&self, ty: &str, fields: &[Field<'_>]) {
        let Some(inner) = &self.0 else { return };
        let mut inner = inner.lock().expect("telemetry lock");
        let seq = inner.seq;
        inner.seq += 1;
        let mut line = String::with_capacity(96);
        let _ = write!(line, "{{\"type\":\"{ty}\",\"seq\":{seq}");
        for f in fields {
            let _ = write!(line, ",\"{}\":", f.name);
            write_value(&mut line, &f.value);
        }
        let wall_ms = inner.epoch.elapsed().as_secs_f64() * 1e3;
        let _ = write!(line, ",\"wall_ms\":{wall_ms:.3}}}");
        inner.write_line(line);
    }

    /// Open a span. Emits `span_start` now; [`Span::end`] emits the
    /// matching `span_end`. `v_now_s` is the virtual clock at entry.
    pub fn span(&self, name: &'static str, v_now_s: f64) -> Span<'_> {
        if self.enabled() {
            event!(self, "span_start", name = name, v_s = v_now_s);
            Span { tel: self, name, v_start: v_now_s, wall_start: Some(Instant::now()) }
        } else {
            Span { tel: self, name, v_start: v_now_s, wall_start: None }
        }
    }

    /// Increment a counter by `n`.
    pub fn add(&self, c: Counter, n: u64) {
        let Some(inner) = &self.0 else { return };
        inner.lock().expect("telemetry lock").counters[c.index()] += n;
    }

    /// Current value of a counter (0 on a noop handle).
    pub fn counter(&self, c: Counter) -> u64 {
        match &self.0 {
            Some(inner) => inner.lock().expect("telemetry lock").counters[c.index()],
            None => 0,
        }
    }

    /// Record one observation into a histogram (non-finite values are
    /// ignored).
    pub fn observe(&self, h: Hist, v: f64) {
        let Some(inner) = &self.0 else { return };
        inner.lock().expect("telemetry lock").hists[h.index()].observe(v);
    }

    /// Snapshot of a histogram (empty on a noop handle).
    pub fn histogram(&self, h: Hist) -> HistSnapshot {
        match &self.0 {
            Some(inner) => inner.lock().expect("telemetry lock").hists[h.index()],
            None => HistSnapshot::default(),
        }
    }

    /// Emit the free-form `run_meta` record (stencil, arch, tuner, seed …).
    pub fn meta(&self, fields: &[Field<'_>]) {
        self.emit("run_meta", fields);
    }

    /// Flush the journal: emits the `counters` record (every counter and
    /// histogram) followed by `journal_end`, then flushes a file sink.
    /// `v_now_s` is the virtual clock at the end of the run.
    pub fn finish(&self, v_now_s: f64) {
        let Some(inner_arc) = &self.0 else { return };
        let (counters, hists) = {
            let inner = inner_arc.lock().expect("telemetry lock");
            (inner.counters, inner.hists)
        };
        // The counters record is hand-assembled (histograms are nested
        // objects, which `Field` deliberately does not model).
        {
            let mut inner = inner_arc.lock().expect("telemetry lock");
            let seq = inner.seq;
            inner.seq += 1;
            let mut line = String::with_capacity(256);
            let _ = write!(line, "{{\"type\":\"counters\",\"seq\":{seq},\"v_s\":");
            write_value(&mut line, &FieldValue::F64(v_now_s));
            for c in Counter::ALL {
                let _ = write!(line, ",\"{}\":{}", c.name(), counters[c.index()]);
            }
            for h in Hist::ALL {
                let _ = write!(line, ",\"hist_{}\":", h.name());
                metrics::write_hist_object(&mut line, &hists[h.index()]);
            }
            let wall_ms = inner.epoch.elapsed().as_secs_f64() * 1e3;
            let _ = write!(line, ",\"wall_ms\":{wall_ms:.3}}}");
            inner.write_line(line);
        }
        let events = {
            let inner = inner_arc.lock().expect("telemetry lock");
            inner.seq + 1 // journal_end itself is the last event
        };
        event!(self, "journal_end", events = events, v_s = v_now_s);
        match &mut inner_arc.lock().expect("telemetry lock").sink {
            SinkKind::File(w) => {
                let _ = w.flush();
            }
            SinkKind::Memory(_) | SinkKind::Tee(_) => {}
        }
    }

    /// The recorded lines of an in-memory sink (`None` for noop and file
    /// sinks).
    pub fn lines(&self) -> Option<Vec<String>> {
        let inner = self.0.as_ref()?.lock().expect("telemetry lock");
        match &inner.sink {
            SinkKind::Memory(lines) => Some(lines.clone()),
            SinkKind::File(_) | SinkKind::Tee(_) => None,
        }
    }
}

/// RAII-less span guard: call [`Span::end`] (or
/// [`Span::end_with_cost`]) with the virtual clock at exit. Dropping a
/// span without ending it emits nothing — spans are explicit on purpose,
/// so the virtual end time is never guessed.
#[must_use = "call .end(v_now_s) to emit the span_end record"]
pub struct Span<'a> {
    tel: &'a Telemetry,
    name: &'static str,
    v_start: f64,
    wall_start: Option<Instant>,
}

impl Span<'_> {
    /// Close the span; virtual cost is `v_now_s - v_start`.
    pub fn end(self, v_now_s: f64) {
        let cost = v_now_s - self.v_start;
        self.end_with_cost(v_now_s, cost);
    }

    /// Close the span with an explicit virtual cost (for host-side stages
    /// whose cost is modeled rather than charged to the tuning clock).
    pub fn end_with_cost(self, v_now_s: f64, v_cost_s: f64) {
        if let Some(start) = self.wall_start {
            let wall_cost_ms = start.elapsed().as_secs_f64() * 1e3;
            // wall_cost_ms is serialized before emit's trailing wall_ms;
            // both are stripped by `strip_wall_fields`.
            event!(
                self.tel,
                "span_end",
                name = self.name,
                v_s = v_now_s,
                v_cost_s = v_cost_s,
                wall_cost_ms = wall_cost_ms
            );
        }
    }
}

fn write_value(out: &mut String, v: &FieldValue<'_>) {
    match v {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(x) => write_f64(out, *x),
        FieldValue::Str(s) => json::write_escaped(out, s),
        FieldValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        FieldValue::F64s(xs) => {
            out.push('[');
            json::write_joined(out, *xs, |out, x| write_f64(out, *x));
            out.push(']');
        }
    }
}

/// Strip the wall-clock fields from one journal line, leaving only the
/// deterministic core. Wall fields (`wall_ms`, `wall_cost_ms`) are always
/// serialized contiguously at the end of a record, so stripping truncates
/// at the first `,"wall` and restores the closing brace.
pub fn strip_wall_fields(line: &str) -> String {
    match line.find(",\"wall") {
        Some(idx) => {
            let mut s = line[..idx].to_string();
            s.push('}');
            s
        }
        None => line.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_inert_and_allocation_free() {
        let tel = Telemetry::noop();
        assert!(!tel.enabled());
        event!(tel, "iteration", iteration = 1u32, v_s = 0.5);
        tel.add(Counter::MemoHits, 3);
        tel.observe(Hist::EvalTimeMs, 1.0);
        let sp = tel.span("search", 0.0);
        sp.end(1.0);
        tel.finish(1.0);
        assert_eq!(tel.counter(Counter::MemoHits), 0);
        assert_eq!(tel.histogram(Hist::EvalTimeMs).count, 0);
        assert!(tel.lines().is_none());
    }

    #[test]
    fn sequence_numbers_are_monotonic_and_dense() {
        let tel = Telemetry::in_memory();
        event!(tel, "run_meta", stencil = "j3d7pt");
        let sp = tel.span("grouping", 0.0);
        sp.end(0.0);
        tel.finish(0.0);
        let lines = tel.lines().unwrap();
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"seq\":{i}")), "line {i}: {line}");
        }
        assert!(lines.first().unwrap().contains("\"type\":\"journal_start\""));
        assert!(lines.last().unwrap().contains("\"type\":\"journal_end\""));
    }

    #[test]
    fn clones_share_one_stream() {
        let tel = Telemetry::in_memory();
        let other = tel.clone();
        event!(tel, "run_meta", from = "a");
        event!(other, "run_meta", from = "b");
        other.add(Counter::GaGenerations, 2);
        assert_eq!(tel.counter(Counter::GaGenerations), 2);
        assert_eq!(tel.lines().unwrap().len(), 3); // journal_start + 2
    }

    #[test]
    fn wall_fields_strip_cleanly() {
        let tel = Telemetry::in_memory();
        let sp = tel.span("search", 1.0);
        sp.end_with_cost(2.5, 1.5);
        let lines = tel.lines().unwrap();
        let end = lines.iter().find(|l| l.contains("span_end")).unwrap();
        assert!(end.contains("wall_cost_ms"));
        let stripped = strip_wall_fields(end);
        assert!(!stripped.contains("wall"));
        assert!(stripped.ends_with('}'));
        assert!(stripped.contains("\"v_cost_s\":1.5"));
        json::parse(&stripped).expect("stripped line stays valid JSON");
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let tel = Telemetry::in_memory();
        let xs = [1.0, f64::INFINITY, f64::NEG_INFINITY];
        event!(tel, "ga_gen", gen = 1u32, island_best = &xs[..], best_ms = f64::NAN);
        let line = tel.lines().unwrap().pop().unwrap();
        assert!(line.contains("[1.0,null,null]"), "{line}");
        assert!(line.contains("\"best_ms\":null"), "{line}");
        json::parse(&strip_wall_fields(&line)).expect("valid JSON");
    }

    #[test]
    fn histogram_buckets_observations() {
        let tel = Telemetry::in_memory();
        for v in [0.5, 5.0, 5.0, 500.0, f64::INFINITY] {
            tel.observe(Hist::EvalTimeMs, v);
        }
        let h = tel.histogram(Hist::EvalTimeMs);
        assert_eq!(h.count, 4, "non-finite must be ignored");
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 500.0);
        assert_eq!(h.buckets[7], 1); // 0.5 → 10^-1 bucket
        assert_eq!(h.buckets[8], 2); // 5.0 ×2 → 10^0 bucket
        assert_eq!(h.buckets[10], 1); // 500 → 10^2 bucket
    }

    #[test]
    fn counters_flush_into_the_counters_record() {
        let tel = Telemetry::in_memory();
        tel.add(Counter::EvalsAttempted, 7);
        tel.add(Counter::MemoHits, 2);
        tel.observe(Hist::PmnfRse, 0.25);
        tel.finish(3.0);
        let lines = tel.lines().unwrap();
        let counters = lines.iter().find(|l| l.contains("\"type\":\"counters\"")).unwrap();
        assert!(counters.contains("\"evals_attempted\":7"));
        assert!(counters.contains("\"memo_hits\":2"));
        assert!(counters.contains("\"hist_pmnf_rse\":{\"count\":1"));
        let parsed = json::parse(&strip_wall_fields(counters)).unwrap();
        assert_eq!(parsed.get("fault_retries").and_then(|v| v.as_f64()), Some(0.0));
    }

    #[test]
    fn file_sink_round_trips() {
        let path = std::env::temp_dir().join(format!("cst_tel_{}.jsonl", std::process::id()));
        let tel = Telemetry::to_file(&path).unwrap();
        event!(tel, "run_meta", stencil = "cheby");
        tel.finish(0.0);
        let content = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(content.lines().count(), 4); // start, meta, counters, end
        for line in content.lines() {
            json::parse(&strip_wall_fields(line)).expect("valid JSON line");
        }
    }

    #[test]
    fn tee_sink_streams_lines_in_seq_order() {
        let seen = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&seen);
        let tel = Telemetry::to_sink(move |line| sink.lock().unwrap().push(line.to_string()));
        event!(tel, "run_meta", stencil = "j3d7pt");
        tel.add(Counter::MemoHits, 1);
        tel.finish(2.0);
        assert!(tel.lines().is_none(), "tee handles store nothing themselves");
        let lines = seen.lock().unwrap().clone();
        assert_eq!(lines.len(), 4); // start, meta, counters, end
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"seq\":{i}")), "line {i}: {line}");
            json::parse(&strip_wall_fields(line)).expect("valid JSON line");
        }
        assert!(lines.first().unwrap().contains("journal_start"));
        assert!(lines.last().unwrap().contains("journal_end"));
    }

    #[test]
    fn string_fields_are_escaped() {
        let tel = Telemetry::in_memory();
        let tricky = "a\"b\\c\nd".to_string();
        event!(tel, "run_meta", note = &tricky);
        let line = tel.lines().unwrap().pop().unwrap();
        let parsed = json::parse(&strip_wall_fields(&line)).unwrap();
        assert_eq!(parsed.get("note").and_then(|v| v.as_str()), Some(tricky.as_str()));
    }
}
