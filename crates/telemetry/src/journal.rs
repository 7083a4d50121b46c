//! The one journal reader. [`read`] parses each line of a run journal
//! once, applies the [`schema`] rules to the parsed record, and folds it
//! into a [`Journal`] in the same pass. Every view of a journal renders
//! that fold — [`schema::validate_journal`], [`crate::report`], and the
//! `cst-obs` run summary and span profile — so all of them attribute
//! cost by the same rule.
//!
//! Spans fold by **call path** (the stack of enclosing span names): one
//! [`SpanRow`] per distinct path with its call count, summed virtual
//! cost, self time (the cost not attributed to child spans) and summed
//! wall cost. The replay is deterministic on unbalanced input too: a
//! `span_end` with no matching open span folds as a root-level path of
//! its own name; open spans it skips over, and spans still open at the
//! end of the journal, close LIFO at that record's (or the journal's
//! final) virtual clock, their cost the clock distance since their start.

use crate::json::{self, Value};
use crate::schema;

/// One call path of the span fold: every completion of a span whose
/// enclosing span stack spelled the same sequence of names.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// Call path from the outermost enclosing span to this one.
    pub path: Vec<String>,
    /// Completions folded into this row.
    pub calls: u64,
    /// Summed virtual cost (seconds), children included.
    pub total_s: f64,
    /// Summed virtual cost minus the cost attributed to child spans.
    pub self_s: f64,
    /// Summed `wall_cost_ms` of the folded `span_end` records, `None`
    /// unless each of them carries one.
    pub wall_ms: Option<f64>,
}

impl SpanRow {
    /// Span name (last path element).
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or("?")
    }

    /// Nesting depth (0 for root spans).
    pub fn depth(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// The path joined with `;` — the row's stable identity, and the
    /// stack syntax of collapsed-stack output.
    pub fn key(&self) -> String {
        self.path.join(";")
    }
}

/// Summed virtual cost of the root rows — the 100% mark of a span table.
pub fn roots_total_s(rows: &[SpanRow]) -> f64 {
    rows.iter().filter(|r| r.depth() == 0).map(|r| r.total_s).sum()
}

/// Condensed view of one journal histogram: moments plus the p50/p95
/// log-bucket estimates of [`hist_percentile`]. A field the record left
/// `null` or out reads back as NaN.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Histogram name (e.g. `eval_time_ms`).
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Mean observation.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
}

/// Estimate the `q`-quantile (`0 < q <= 1`) of a journal histogram from
/// its log₁₀ bucket counts. Bucket `i` covers `[10^(i-8), 10^(i-7))`; the
/// estimator finds the bucket holding the `ceil(q·count)`-th observation
/// and interpolates the observation's position inside the bucket linearly
/// in log space (bucket-midpoint interpolation: a lone observation lands
/// on the bucket's geometric midpoint). Returns `None` for an empty
/// histogram.
pub fn hist_percentile(buckets: &[u64], q: f64) -> Option<f64> {
    let count: u64 = buckets.iter().sum();
    if count == 0 || !(0.0..=1.0).contains(&q) || q == 0.0 {
        return None;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if cum + n >= rank && n > 0 {
            let f = (((rank - cum) as f64 - 0.5) / n as f64).clamp(0.0, 1.0);
            return Some(10f64.powf(i as f64 - 8.0 + f));
        }
        cum += n;
    }
    None
}

/// The `p50`/`p95` percentile estimates of a histogram object (`None`
/// when empty or malformed): the journal's `hist_*` digests and the
/// daemon's metrics-frame histograms share this shape.
pub fn hist_percentiles(hist: &Value) -> Option<(f64, f64)> {
    let buckets: Vec<u64> =
        hist.get("buckets").and_then(Value::as_arr)?.iter().filter_map(Value::as_u64).collect();
    Some((hist_percentile(&buckets, 0.5)?, hist_percentile(&buckets, 0.95)?))
}

/// A record's number field.
pub fn num(rec: &Value, key: &str) -> Option<f64> {
    rec.get(key).and_then(Value::as_f64)
}

/// A record's integer field (0 when absent or not one).
pub fn uint(rec: &Value, key: &str) -> u64 {
    rec.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// A record's string field (`?` when absent or not one).
pub fn text<'a>(rec: &'a Value, key: &str) -> &'a str {
    rec.get(key).and_then(Value::as_str).unwrap_or("?")
}

/// A schema-valid journal, folded. Records keep journal order.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// Distinct record types seen, in first-appearance order.
    pub types_seen: Vec<String>,
    /// The span fold, one row per call path in first-completion order.
    pub spans: Vec<SpanRow>,
    /// Digests of the first `counters` record's non-empty `hist_*`
    /// histograms, in record order.
    pub hists: Vec<HistSummary>,
    /// The first `counters` record.
    pub counters: Option<Value>,
    /// The `run_meta` records.
    pub run_meta: Vec<Value>,
    /// The `iteration` records: the convergence trajectory.
    pub iterations: Vec<Value>,
    /// The `group_pinned` records.
    pub pins: Vec<Value>,
    /// The `sampling_group` records.
    pub sampling: Vec<Value>,
    /// The `outcome` records.
    pub outcomes: Vec<Value>,
    /// The `sample` records.
    pub samples: Vec<Value>,
    /// The virtual clock of the last record that carries one — the
    /// closing `journal_end`'s.
    pub final_v_s: f64,
}

impl Journal {
    /// Fold one checked record of type `ty`.
    fn fold(&mut self, ty: &str, rec: Value, stack: &mut SpanStack) {
        let v_s = num(&rec, "v_s");
        match ty {
            "span_start" => stack.open.push(OpenSpan {
                name: text(&rec, "name").to_string(),
                start_v_s: v_s.unwrap_or(0.0),
                child_cost_s: 0.0,
            }),
            "span_end" => stack.end(
                text(&rec, "name"),
                v_s.unwrap_or(0.0),
                num(&rec, "v_cost_s").unwrap_or(0.0),
                num(&rec, "wall_cost_ms"),
            ),
            "counters" if self.counters.is_none() => {
                self.hists = hist_digests(&rec);
                self.counters = Some(rec);
            }
            "run_meta" => self.run_meta.push(rec),
            "iteration" => self.iterations.push(rec),
            "group_pinned" => self.pins.push(rec),
            "sampling_group" => self.sampling.push(rec),
            "outcome" => self.outcomes.push(rec),
            "sample" => self.samples.push(rec),
            _ => {}
        }
        if let Some(v) = v_s {
            self.final_v_s = v;
        }
    }
}

/// Digest every non-empty `hist_*` histogram of a `counters` record, in
/// record order (an empty one has no moments worth keeping).
fn hist_digests(rec: &Value) -> Vec<HistSummary> {
    let Value::Obj(fields) = rec else { return Vec::new() };
    let digest = |(key, h): &(String, Value)| {
        let count = uint(h, "count");
        let name = key.strip_prefix("hist_").filter(|_| count > 0)?.to_string();
        let (p50, p95) = hist_percentiles(h).unwrap_or((f64::NAN, f64::NAN));
        let mean = num(h, "sum").unwrap_or(0.0) / count as f64;
        let (min, max) = (num(h, "min").unwrap_or(f64::NAN), num(h, "max").unwrap_or(f64::NAN));
        Some(HistSummary { name, count, mean, min, max, p50, p95 })
    };
    fields.iter().filter_map(digest).collect()
}

/// Parse, check and fold a journal (one JSON record per line). Besides
/// each record's own rules, the stream rules hold: `seq` dense from 0,
/// `journal_start` first, `journal_end` last. The first broken rule is
/// the error, so a malformed journal never yields a half-filled fold.
pub fn read(lines: &[String]) -> Result<Journal, String> {
    if lines.is_empty() {
        return Err("empty journal".to_string());
    }
    let mut journal = Journal::default();
    let mut stack = SpanStack::default();
    for (i, line) in lines.iter().enumerate() {
        let at_line = |e: String| format!("line {}: {e}", i + 1);
        let rec = json::parse(line).map_err(at_line)?;
        let (ty, seq) = schema::check_record(&rec).map_err(at_line)?;
        if seq != i as u64 {
            return Err(at_line(format!("seq {seq}, expected {i}")));
        }
        if i == 0 && ty != "journal_start" {
            return Err(format!("first record is '{ty}', expected 'journal_start'"));
        }
        if i == lines.len() - 1 && ty != "journal_end" {
            return Err(format!("last record is '{ty}', expected 'journal_end'"));
        }
        if !journal.types_seen.iter().any(|t| t == ty) {
            journal.types_seen.push(ty.to_string());
        }
        journal.fold(ty, rec, &mut stack);
    }
    while !stack.open.is_empty() {
        stack.close_top(journal.final_v_s);
    }
    journal.spans = stack.rows;
    Ok(journal)
}

/// One open span on the replay stack.
struct OpenSpan {
    name: String,
    start_v_s: f64,
    child_cost_s: f64,
}

/// The span-stack replay behind [`Journal::spans`].
#[derive(Default)]
struct SpanStack {
    open: Vec<OpenSpan>,
    rows: Vec<SpanRow>,
}

impl SpanStack {
    /// Close the innermost open span called `name` at clock `v_s`.
    fn end(&mut self, name: &str, v_s: f64, cost_s: f64, wall_ms: Option<f64>) {
        match self.open.iter().rposition(|o| o.name == name) {
            Some(pos) => {
                // Anything opened above the match never got its span_end
                // (a crashed stage): close it first, at this clock.
                while self.open.len() > pos + 1 {
                    self.close_top(v_s);
                }
                let span = self.open.pop().expect("pos exists");
                self.fold(span, cost_s, wall_ms);
            }
            None => {
                // Unmatched end: fold as a root-level path.
                let enclosing = std::mem::take(&mut self.open);
                let name = name.to_string();
                self.fold(OpenSpan { name, start_v_s: 0.0, child_cost_s: 0.0 }, cost_s, wall_ms);
                self.open = enclosing;
            }
        }
    }

    /// Close the innermost open span, which has no `span_end`, at clock
    /// `v_s`.
    fn close_top(&mut self, v_s: f64) {
        let span = self.open.pop().expect("an open span");
        let cost_s = (v_s - span.start_v_s).max(0.0);
        self.fold(span, cost_s, None);
    }

    /// Fold a closed span into the row of its call path, and charge its
    /// cost to the enclosing span.
    fn fold(&mut self, span: OpenSpan, cost_s: f64, wall_ms: Option<f64>) {
        let self_s = cost_s - span.child_cost_s;
        if let Some(parent) = self.open.last_mut() {
            parent.child_cost_s += cost_s;
        }
        let mut path: Vec<String> = self.open.iter().map(|o| o.name.clone()).collect();
        path.push(span.name);
        match self.rows.iter_mut().find(|r| r.path == path) {
            Some(r) => {
                r.calls += 1;
                r.total_s += cost_s;
                r.self_s += self_s;
                r.wall_ms = r.wall_ms.zip(wall_ms).map(|(a, b)| a + b);
            }
            None => self.rows.push(SpanRow { path, calls: 1, total_s: cost_s, self_s, wall_ms }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{strip_wall_fields, Telemetry};

    /// Nested and repeated spans: search holds two model_fit children;
    /// sampling is a root sibling.
    fn nested_journal() -> Vec<String> {
        let tel = Telemetry::in_memory();
        let sampling = tel.span("sampling", 0.0);
        sampling.end_with_cost(0.0, 0.25);
        let search = tel.span("search", 0.0);
        let fit = tel.span("model_fit", 1.0);
        fit.end(2.0); // cost 1.0
        let fit = tel.span("model_fit", 4.0);
        fit.end(6.5); // cost 2.5
        search.end(9.0); // cost 9.0, children 3.5, self 5.5
        tel.finish(9.0);
        tel.lines().unwrap()
    }

    #[test]
    fn folds_spans_by_call_path_with_wall_sums() {
        let j = read(&nested_journal()).unwrap();
        let keys: Vec<String> = j.spans.iter().map(SpanRow::key).collect();
        assert_eq!(keys, ["sampling", "search;model_fit", "search"]);
        let fit = &j.spans[1];
        assert_eq!((fit.calls, fit.total_s, fit.self_s), (2, 3.5, 3.5));
        assert!(fit.wall_ms.is_some_and(|w| w >= 0.0), "both ends carry wall: {fit:?}");
        assert_eq!((j.spans[2].total_s, j.spans[2].self_s), (9.0, 5.5));
        assert_eq!(roots_total_s(&j.spans), 9.25);
        assert_eq!(j.final_v_s, 9.0);
        // Stripped ends carry no wall cost, so no row sums one.
        let stripped: Vec<String> = nested_journal().iter().map(|l| strip_wall_fields(l)).collect();
        assert!(read(&stripped).unwrap().spans.iter().all(|r| r.wall_ms.is_none()));
    }

    #[test]
    fn stray_and_unclosed_spans_close_by_the_clock() {
        let lines: Vec<String> = [
            r#"{"type":"journal_start","seq":0,"schema":2,"source":"t"}"#,
            r#"{"type":"span_start","seq":1,"name":"search","v_s":1.0}"#,
            r#"{"type":"span_start","seq":2,"name":"fit","v_s":2.0}"#,
            r#"{"type":"span_end","seq":3,"name":"search","v_s":3.0,"v_cost_s":2.0}"#,
            r#"{"type":"span_end","seq":4,"name":"codegen","v_s":3.0,"v_cost_s":0.5}"#,
            r#"{"type":"span_start","seq":5,"name":"tail","v_s":4.0}"#,
            r#"{"type":"journal_end","seq":6,"events":7,"v_s":6.0}"#,
        ]
        .map(str::to_string)
        .to_vec();
        let j = read(&lines).unwrap();
        let rows: Vec<(String, f64, f64)> =
            j.spans.iter().map(|r| (r.key(), r.total_s, r.self_s)).collect();
        assert_eq!(
            rows,
            [
                // fit never ended: closed when search ended, at v = 3.
                ("search;fit".to_string(), 1.0, 1.0),
                ("search".to_string(), 2.0, 1.0),
                // codegen ended without a start: a root path of its own.
                ("codegen".to_string(), 0.5, 0.5),
                // tail was still open at journal_end, v = 6.
                ("tail".to_string(), 2.0, 2.0),
            ]
        );
        assert!(j.spans.iter().all(|r| r.wall_ms.is_none()));
    }

    #[test]
    fn percentiles_interpolate_log_buckets() {
        assert_eq!(hist_percentile(&[0; 16], 0.5), None);
        // A lone observation lands on its bucket's geometric midpoint:
        // bucket 8 covers [1, 10), midpoint 10^0.5.
        let mut b = [0u64; 16];
        b[8] = 1;
        let p = hist_percentile(&b, 0.5).unwrap();
        assert!((p - 10f64.sqrt()).abs() < 1e-12, "{p}");
        // With observations split across two buckets, p95 must come from
        // the upper one and p50 from the lower.
        let mut b = [0u64; 16];
        b[8] = 10;
        b[10] = 1;
        let p50 = hist_percentile(&b, 0.5).unwrap();
        let p95 = hist_percentile(&b, 0.95).unwrap();
        assert!((1.0..10.0).contains(&p50), "{p50}");
        assert!((100.0..1000.0).contains(&p95), "{p95}");
        // The estimator is monotone in q.
        assert!(p50 <= p95);
        assert_eq!(hist_percentile(&b, 0.0), None);
    }
}
