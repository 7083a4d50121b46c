//! Result serialization and markdown rendering.
//!
//! Every experiment produces a [`Table`]: a header row plus data rows.
//! Tables render to GitHub markdown for EXPERIMENTS.md and serialize to
//! JSON under `results/` so downstream tooling can re-plot the figures.
//!
//! The JSON is pretty-printed by [`Json`]: two-space indent, one item or
//! field per line, `"key": value`, `[]`/`{}` when empty, bare integers
//! and no trailing newline. Floats and strings go through
//! [`cst_telemetry::json`]'s writers, so they format exactly as they do
//! in journals and wire frames.

use cst_telemetry::json::{write_escaped, write_f64, write_joined};
use std::fmt::Write as _;
use std::path::Path;

/// A value the result writer can emit as pretty JSON.
pub trait Json {
    /// Append `self` to `out`; lines nested inside it are indented one
    /// level deeper than `depth`.
    fn write(&self, out: &mut String, depth: usize);
}

/// Append `open`, each item on its own line one level deeper than
/// `depth`, and `close`; an empty block stays on one line.
fn write_block<T>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    items: impl IntoIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T),
) {
    out.push(open);
    let start = out.len();
    write_joined(out, items, |out, item| {
        newline(out, depth + 1);
        write_item(out, item);
    });
    if out.len() > start {
        newline(out, depth);
    }
    out.push(close);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n("  ", depth));
}

/// Append a JSON object with `fields` in order.
pub(crate) fn write_object(out: &mut String, depth: usize, fields: &[(&str, &dyn Json)]) {
    write_block(out, depth, ['{', '}'], fields, |out, (key, value)| {
        write_escaped(out, key);
        out.push_str(": ");
        value.write(out, depth + 1);
    });
}

impl<T: Json + ?Sized> Json for &T {
    fn write(&self, out: &mut String, depth: usize) {
        (**self).write(out, depth);
    }
}

impl Json for f64 {
    fn write(&self, out: &mut String, _: usize) {
        write_f64(out, *self);
    }
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn write(&self, out: &mut String, _: usize) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

json_int!(u32, u64, usize);

impl Json for str {
    fn write(&self, out: &mut String, _: usize) {
        write_escaped(out, self);
    }
}

impl Json for String {
    fn write(&self, out: &mut String, depth: usize) {
        self.as_str().write(out, depth);
    }
}

impl<T: Json> Json for [T] {
    fn write(&self, out: &mut String, depth: usize) {
        write_block(out, depth, ['[', ']'], self, |out, item| item.write(out, depth + 1));
    }
}

impl<T: Json, const N: usize> Json for [T; N] {
    fn write(&self, out: &mut String, depth: usize) {
        self.as_slice().write(out, depth);
    }
}

impl<T: Json> Json for Vec<T> {
    fn write(&self, out: &mut String, depth: usize) {
        self.as_slice().write(out, depth);
    }
}

impl<A: Json, B: Json> Json for (A, B) {
    fn write(&self, out: &mut String, depth: usize) {
        [&self.0 as &dyn Json, &self.1].write(out, depth);
    }
}

impl<A: Json, B: Json, C: Json> Json for (A, B, C) {
    fn write(&self, out: &mut String, depth: usize) {
        [&self.0 as &dyn Json, &self.1, &self.2].write(out, depth);
    }
}

/// A rendered experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment identifier, e.g. `"fig2"`.
    pub id: String,
    /// Human title, e.g. `"Fig. 2 — speedup distribution"`.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (already formatted as strings).
    pub rows: Vec<Vec<String>>,
}

impl Json for Table {
    fn write(&self, out: &mut String, depth: usize) {
        write_object(
            out,
            depth,
            &[
                ("id", &self.id),
                ("title", &self.title),
                ("header", &self.header),
                ("rows", &self.rows),
            ],
        );
    }
}

impl Table {
    /// Create a table with headers.
    pub fn new(id: &str, title: &str, header: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the arity differs from the header.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Render as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        writeln!(s, "### {}", self.title).unwrap();
        writeln!(s).unwrap();
        writeln!(s, "| {} |", self.header.join(" | ")).unwrap();
        writeln!(s, "|{}|", self.header.iter().map(|_| "---").collect::<Vec<_>>().join("|"))
            .unwrap();
        for row in &self.rows {
            writeln!(s, "| {} |", row.join(" | ")).unwrap();
        }
        s
    }

    /// The JSON document `{"table": .., "raw": ..}` that
    /// [`Table::write_json`] writes.
    fn to_json(&self, raw: &dyn Json) -> String {
        let mut out = String::new();
        write_object(&mut out, 0, &[("table", self), ("raw", raw)]);
        out
    }

    /// Write the table (plus arbitrary raw payload) as JSON into
    /// `dir/<id>.json`.
    pub fn write_json(&self, dir: &Path, raw: &dyn Json) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.json", self.id)), self.to_json(raw))
    }
}

/// Format a float with 3 significant decimals.
pub fn f3(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "∞".to_string()
    }
}

/// Format a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pretty(value: &(impl Json + ?Sized)) -> String {
        let mut out = String::new();
        value.write(&mut out, 0);
        out
    }

    #[test]
    fn markdown_renders_header_and_rows() {
        let mut t = Table::new("t1", "Test", &["a", "b"]);
        t.push(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Test"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("t", "T", &["a"]);
        t.push(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn pretty_layout_is_two_space_one_field_per_line() {
        let mut t = Table::new("demo", "Demo", &["x", "y"]);
        t.push(vec!["1".into(), "2".into()]);
        assert_eq!(
            pretty(&t),
            "{\n  \"id\": \"demo\",\n  \"title\": \"Demo\",\n  \"header\": [\n    \"x\",\n    \"y\"\n  ],\n  \"rows\": [\n    [\n      \"1\",\n      \"2\"\n    ]\n  ]\n}"
        );
    }

    #[test]
    fn floats_keep_a_decimal_and_non_finite_become_null() {
        assert_eq!(pretty(&vec![1.5, 2.0, -0.25]), "[\n  1.5,\n  2.0,\n  -0.25\n]");
        assert_eq!(pretty(&[f64::INFINITY, f64::NAN]), "[\n  null,\n  null\n]");
        assert_eq!(pretty(&14.910154643370277), "14.910154643370277");
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(pretty("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(pretty(&"static"), "\"static\"");
    }

    #[test]
    fn every_raw_shape_experiments_emit() {
        // Bare integers.
        assert_eq!(pretty(&vec![1u32, 2]), "[\n  1,\n  2\n]");
        assert_eq!(pretty(&(7u64, 3usize)), "[\n  7,\n  3\n]");
        // (stencil, bins) pairs and (stencil, ratio, best) triples.
        assert_eq!(
            pretty(&vec![("j3d7pt", [0.5, 1.0])]),
            "[\n  [\n    \"j3d7pt\",\n    [\n      0.5,\n      1.0\n    ]\n  ]\n]"
        );
        assert_eq!(
            pretty(&vec![("cheby".to_string(), 2usize, 0.75)]),
            "[\n  [\n    \"cheby\",\n    2,\n    0.75\n  ]\n]"
        );
        // Empty arrays and objects stay on one line.
        assert_eq!(pretty(&Vec::<f64>::new()), "[]");
        assert_eq!(pretty(&vec![Vec::<u32>::new()]), "[\n  []\n]");
        let mut empty = String::new();
        write_object(&mut empty, 0, &[]);
        assert_eq!(empty, "{}");
    }

    #[test]
    fn objects_nest_inside_arrays() {
        struct Point(u32, f64);
        impl Json for Point {
            fn write(&self, out: &mut String, depth: usize) {
                write_object(out, depth, &[("i", &self.0), ("ms", &self.1)]);
            }
        }
        assert_eq!(
            pretty(&vec![Point(1, 2.0), Point(2, 1.5)]),
            "[\n  {\n    \"i\": 1,\n    \"ms\": 2.0\n  },\n  {\n    \"i\": 2,\n    \"ms\": 1.5\n  }\n]"
        );
    }

    #[test]
    fn the_file_writer_writes_the_string_writer_bytes() {
        let dir = std::env::temp_dir().join(format!("cst-bench-report-{}", std::process::id()));
        let t = Table::new("demo", "Demo", &[]);
        let raw = vec![1u32, 2, 3];
        t.write_json(&dir, &raw).unwrap();
        let body = std::fs::read_to_string(dir.join("demo.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(body, t.to_json(&raw));
        assert_eq!(
            body,
            "{\n  \"table\": {\n    \"id\": \"demo\",\n    \"title\": \"Demo\",\n    \"header\": [],\n    \"rows\": []\n  },\n  \"raw\": [\n    1,\n    2,\n    3\n  ]\n}"
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f3(f64::INFINITY), "∞");
        assert_eq!(pct(0.051), "5.1%");
    }
}
