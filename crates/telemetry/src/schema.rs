//! Versioned schema for the JSONL run-journal, plus a line-by-line
//! validator. The schema is a closed set: every record type the pipeline
//! emits is registered here with its required fields, so an unknown type
//! or a missing/mistyped field is a validation error. CI pipes every
//! journal it produces through [`validate_journal`], which runs the
//! [`journal`] reader and keeps only its verdict.

use crate::json::Value;
use crate::{journal, Counter, Hist, SCHEMA_VERSION};

/// Expected kind of a required field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// A JSON number.
    Num,
    /// A JSON number or `null` (non-finite floats serialize as `null`).
    NumOrNull,
    /// A JSON string.
    Str,
    /// A JSON array.
    Arr,
}

impl FieldKind {
    fn matches(self, v: &Value) -> bool {
        match self {
            FieldKind::Num => matches!(v, Value::Num(_)),
            FieldKind::NumOrNull => matches!(v, Value::Num(_) | Value::Null),
            FieldKind::Str => matches!(v, Value::Str(_)),
            FieldKind::Arr => matches!(v, Value::Arr(_)),
        }
    }
}

/// Every record type of schema version [`SCHEMA_VERSION`] with its
/// required fields. Records may carry extra fields (wall-clock fields,
/// free-form metadata); required ones must be present and well-typed.
pub const EVENT_TYPES: &[(&str, &[(&str, FieldKind)])] = &[
    ("journal_start", &[("schema", FieldKind::Num), ("source", FieldKind::Str)]),
    ("run_meta", &[]),
    ("span_start", &[("name", FieldKind::Str), ("v_s", FieldKind::Num)]),
    (
        "span_end",
        &[("name", FieldKind::Str), ("v_s", FieldKind::Num), ("v_cost_s", FieldKind::Num)],
    ),
    ("dataset", &[("records", FieldKind::Num), ("v_s", FieldKind::Num)]),
    ("groups", &[("n_groups", FieldKind::Num), ("groups", FieldKind::Str)]),
    ("pmnf_fit", &[("target", FieldKind::Str), ("rse", FieldKind::NumOrNull)]),
    (
        "sampling_group",
        &[
            ("group", FieldKind::Num),
            ("params", FieldKind::Str),
            ("candidates", FieldKind::Num),
            ("kept", FieldKind::Num),
        ],
    ),
    ("codegen", &[("kernels", FieldKind::Num), ("bytes", FieldKind::Num)]),
    (
        "iteration",
        &[
            ("iteration", FieldKind::Num),
            ("v_s", FieldKind::Num),
            ("best_ms", FieldKind::NumOrNull),
            ("evals", FieldKind::Num),
        ],
    ),
    (
        "group_pinned",
        &[("group", FieldKind::Num), ("iteration", FieldKind::Num), ("v_s", FieldKind::Num)],
    ),
    (
        "ga_gen",
        &[
            ("gen", FieldKind::Num),
            ("evaluations", FieldKind::Num),
            ("best_ms", FieldKind::NumOrNull),
            ("island_best", FieldKind::Arr),
        ],
    ),
    ("quarantine", &[("setting", FieldKind::Str), ("v_s", FieldKind::Num)]),
    // Sampled (setting, measured time) training pairs for the transfer
    // knowledge base, emitted by the kernel recorder at run end.
    ("sample", &[("setting", FieldKind::Str), ("time_ms", FieldKind::NumOrNull)]),
    (
        "outcome",
        &[
            ("tuner", FieldKind::Str),
            ("best_ms", FieldKind::NumOrNull),
            ("evaluations", FieldKind::Num),
            ("search_s", FieldKind::Num),
        ],
    ),
    // `counters` requires every registered counter and histogram; see
    // `validate_counters`.
    ("counters", &[("v_s", FieldKind::Num)]),
    ("journal_end", &[("events", FieldKind::Num), ("v_s", FieldKind::Num)]),
];

/// Apply the single-record rules to a parsed line. Returns its type and
/// `seq`.
pub(crate) fn check_record(v: &Value) -> Result<(&'static str, u64), String> {
    let Value::Obj(_) = v else {
        return Err(format!("record is {}, expected object", v.kind()));
    };
    let ty = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing string field 'type'".to_string())?;
    let seq = v
        .get("seq")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{ty}: missing integer field 'seq'"))?;
    let &(ty, required) = EVENT_TYPES
        .iter()
        .find(|(t, _)| *t == ty)
        .ok_or_else(|| format!("unknown record type '{ty}'"))?;
    for (name, kind) in required {
        match v.get(name) {
            None => return Err(format!("{ty}: missing field '{name}'")),
            Some(val) if !kind.matches(val) => {
                return Err(format!("{ty}: field '{name}' is {}, expected {kind:?}", val.kind()));
            }
            Some(_) => {}
        }
    }
    match ty {
        "journal_start" => {
            let schema = v.get("schema").and_then(Value::as_u64);
            if schema != Some(SCHEMA_VERSION) {
                return Err(format!(
                    "journal_start: schema {schema:?}, this validator understands {SCHEMA_VERSION}"
                ));
            }
        }
        "counters" => validate_counters(v)?,
        _ => {}
    }
    Ok((ty, seq))
}

fn validate_counters(v: &Value) -> Result<(), String> {
    for c in Counter::ALL {
        v.get(c.name())
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("counters: missing counter '{}'", c.name()))?;
    }
    for h in Hist::ALL {
        let key = format!("hist_{}", h.name());
        let obj = v.get(&key).ok_or_else(|| format!("counters: missing histogram '{key}'"))?;
        for field in ["count", "sum", "min", "max"] {
            if !obj.get(field).is_some_and(|v| FieldKind::NumOrNull.matches(v)) {
                return Err(format!("counters: histogram '{key}' missing '{field}'"));
            }
        }
        obj.get("buckets")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("counters: histogram '{key}' missing 'buckets'"))?;
    }
    Ok(())
}

/// Summary of a validated journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSummary {
    /// Number of records.
    pub records: usize,
    /// Distinct record types seen, in first-appearance order.
    pub types_seen: Vec<String>,
}

/// Validate a whole journal: every line individually, plus the stream
/// rules — `seq` dense from 0, `journal_start` first, `journal_end` last.
pub fn validate_journal(lines: &[String]) -> Result<JournalSummary, String> {
    let types_seen = journal::read(lines)?.types_seen;
    Ok(JournalSummary { records: lines.len(), types_seen })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::{event, strip_wall_fields, Telemetry};

    /// The single-record rules on one parsed line; its type when it passes.
    fn check_line(line: &str) -> Result<&'static str, String> {
        check_record(&json::parse(line)?).map(|(ty, _)| ty)
    }

    /// Emit a representative record of every registered type and check
    /// that each passes validation — the schema test over every event
    /// type required by the issue.
    #[test]
    fn every_event_type_validates() {
        let tel = Telemetry::in_memory();
        tel.meta(&[]);
        let sp = tel.span("dataset", 0.0);
        sp.end(0.5);
        event!(tel, "dataset", records = 48u32, v_s = 0.5);
        event!(tel, "groups", n_groups = 3u32, groups = "[bx,by][bz][u]");
        event!(tel, "pmnf_fit", target = "t0", rse = 0.125, terms = 4u32);
        event!(
            tel,
            "sampling_group",
            group = 0u32,
            params = "bx,by",
            candidates = 96u32,
            kept = 24u32
        );
        event!(tel, "codegen", kernels = 16u32, bytes = 48_000u64);
        event!(tel, "iteration", iteration = 1u32, v_s = 2.5, best_ms = 3.25, evals = 40u32);
        event!(tel, "group_pinned", group = 1u32, iteration = 4u32, v_s = 9.0);
        let best = [1.5, f64::NAN];
        event!(
            tel,
            "ga_gen",
            gen = 2u32,
            evaluations = 64u32,
            best_ms = 1.5,
            island_best = &best[..]
        );
        event!(tel, "quarantine", setting = "bx=32 by=8", v_s = 4.0);
        event!(tel, "sample", setting = "bx=32 by=8", time_ms = 3.5);
        event!(
            tel,
            "outcome",
            tuner = "cstuner",
            best_ms = 3.25,
            evaluations = 412u32,
            search_s = 30.0
        );
        tel.finish(30.0);

        let lines = tel.lines().unwrap();
        let summary = validate_journal(&lines).expect("journal valid");
        let mut missing: Vec<&str> = EVENT_TYPES
            .iter()
            .map(|(t, _)| *t)
            .filter(|t| !summary.types_seen.iter().any(|s| s == t))
            .collect();
        assert!(
            missing.is_empty(),
            "types never exercised: {missing:?}",
            missing = {
                missing.sort();
                missing
            }
        );
        // Stripping wall fields must not invalidate any record.
        let stripped: Vec<String> = lines.iter().map(|l| strip_wall_fields(l)).collect();
        validate_journal(&stripped).expect("stripped journal still valid");
    }

    #[test]
    fn rejects_unknown_type_and_missing_fields() {
        assert!(check_line(r#"{"type":"mystery","seq":0}"#)
            .unwrap_err()
            .contains("unknown record type"));
        assert!(check_line(r#"{"type":"span_start","seq":0,"name":"x"}"#)
            .unwrap_err()
            .contains("missing field 'v_s'"));
        assert!(check_line(r#"{"type":"span_start","seq":0,"name":7,"v_s":0.0}"#)
            .unwrap_err()
            .contains("expected Str"));
        assert!(check_line(r#"{"type":"iteration","iteration":1,"v_s":0.0,"best_ms":null}"#)
            .unwrap_err()
            .contains("seq"));
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let line = r#"{"type":"journal_start","seq":0,"schema":999,"source":"cstuner"}"#;
        assert!(check_line(line).unwrap_err().contains("schema"));
    }

    #[test]
    fn stream_rules_enforced() {
        let ok = |s: &str| s.to_string();
        // Gap in seq.
        let bad = vec![
            ok(r#"{"type":"journal_start","seq":0,"schema":2,"source":"t"}"#),
            ok(r#"{"type":"journal_end","seq":2,"events":2,"v_s":0.0}"#),
        ];
        assert!(validate_journal(&bad).unwrap_err().contains("seq"));
        // Missing journal_end.
        let bad = vec![
            ok(r#"{"type":"journal_start","seq":0,"schema":2,"source":"t"}"#),
            ok(r#"{"type":"run_meta","seq":1}"#),
        ];
        assert!(validate_journal(&bad).unwrap_err().contains("journal_end"));
        assert!(validate_journal(&[]).is_err());
    }
}
