//! The knowledge base: versioned, byte-deterministic training records
//! extracted from an archive of run summaries.
//!
//! `kb build` walks a [`JournalStore`], reads each `*.summary.json` once,
//! and turns its sampled (setting, time) pairs into [`KbRecord`]s tagged
//! with the run's stencil/arch identity and a content hash of the source
//! summary bytes (provenance: a KB record can always be traced back to
//! the exact archived bytes it came from). Records are sorted and
//! deduplicated under a total order, and the serializer uses the
//! journal's canonical float/string formatting, so the same store always
//! produces byte-identical `kb.json` — two builders on two machines can
//! diff their indexes with `cmp`.
//!
//! A corrupt or foreign summary (unparseable JSON, unknown version,
//! malformed setting strings) is skipped with a warning, never a build
//! failure: the KB is an accelerator, and one bad archive entry must not
//! take the whole fleet's memory down.

use cst_obs::JournalStore;
use cst_space::Setting;
use cst_telemetry::json::{self, Value};
use std::fmt::Write as _;
use std::path::Path;

/// Version stamped into every `kb.json`. Bump when a field is removed,
/// renamed, or changes meaning; adding optional fields is backward
/// compatible and needs no bump.
pub const KB_VERSION: u64 = 1;

/// Index file name inside a store directory.
pub const KB_FILE: &str = "kb.json";

/// One training record: a measured (setting, time) pair with identity
/// and provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct KbRecord {
    /// Stencil name the measurement belongs to.
    pub stencil: String,
    /// GPU architecture name the measurement was taken on.
    pub arch: String,
    /// The measured setting, canonical `Display` form (re-rendered after
    /// parsing, so spacing/ordering is normalized).
    pub setting: String,
    /// Measured kernel time, ms (finite by construction).
    pub time_ms: f64,
    /// Run name in the source store.
    pub source: String,
    /// FNV-1a content hash of the source summary bytes, 16 hex digits.
    pub origin: String,
}

impl KbRecord {
    /// The record's parsed setting. Always succeeds for records built by
    /// [`KnowledgeBase::build`] (unparseable settings are skipped there);
    /// `None` only for hand-edited indexes.
    pub fn parsed_setting(&self) -> Option<Setting> {
        self.setting.parse().ok()
    }
}

/// The versioned record index.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KnowledgeBase {
    /// Training records, sorted under the canonical total order.
    pub records: Vec<KbRecord>,
}

/// A finished build: the index plus the warnings it accumulated.
#[derive(Debug, Clone)]
pub struct KbBuild {
    /// The built index.
    pub kb: KnowledgeBase,
    /// One human-readable line per skipped summary/sample.
    pub warnings: Vec<String>,
}

/// FNV-1a over raw bytes ([`cst_space::hash::fnv1a`]), rendered as 16
/// hex digits.
pub fn content_hash(bytes: &[u8]) -> String {
    format!("{:016x}", cst_space::hash::fnv1a(bytes.iter().copied()))
}

impl KnowledgeBase {
    /// Extract training records from every summary in the store.
    /// Summaries that fail to load (corrupt bytes, foreign versions) and
    /// samples whose setting does not parse are skipped with a warning;
    /// non-finite sample times (faulted measurements serialized as
    /// `null`) are silently dropped — they carry no label.
    pub fn build(store: &JournalStore) -> Result<KbBuild, String> {
        let mut records = Vec::new();
        let mut warnings = Vec::new();
        for name in store.list()? {
            let path = store.path_of(&name);
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    warnings.push(format!("skipping {}: {e}", path.display()));
                    continue;
                }
            };
            let summary = match store.parse(&name, &bytes) {
                Ok(s) => s,
                Err(e) => {
                    warnings.push(format!("skipping {e}"));
                    continue;
                }
            };
            let origin = content_hash(&bytes);
            for (text, t) in &summary.samples {
                if !t.is_finite() {
                    continue;
                }
                let parsed: Result<Setting, String> = text.parse();
                match parsed {
                    Ok(s) => records.push(KbRecord {
                        stencil: summary.stencil.clone(),
                        arch: summary.arch.clone(),
                        setting: s.to_string(),
                        time_ms: *t,
                        source: name.clone(),
                        origin: origin.clone(),
                    }),
                    Err(e) => {
                        warnings.push(format!("skipping sample in {name}: {e}"));
                    }
                }
            }
        }
        let mut kb = KnowledgeBase { records };
        kb.normalize();
        Ok(KbBuild { kb, warnings })
    }

    /// Sort under the canonical total order and drop exact duplicates —
    /// the invariant behind byte-deterministic serialization.
    fn normalize(&mut self) {
        self.records.sort_by(|a, b| {
            (&a.stencil, &a.arch, &a.setting, a.time_ms.to_bits(), &a.source, &a.origin).cmp(&(
                &b.stencil,
                &b.arch,
                &b.setting,
                b.time_ms.to_bits(),
                &b.source,
                &b.origin,
            ))
        });
        self.records.dedup();
    }

    /// Records for an exact (stencil, arch) pair.
    pub fn for_pair(&self, stencil: &str, arch: &str) -> Vec<&KbRecord> {
        self.records.iter().filter(|r| r.stencil == stencil && r.arch == arch).collect()
    }

    /// Records for a stencil on any architecture.
    pub fn for_stencil(&self, stencil: &str) -> Vec<&KbRecord> {
        self.records.iter().filter(|r| r.stencil == stencil).collect()
    }

    /// Distinct (stencil, arch) pairs with record counts, sorted.
    pub fn pairs(&self) -> Vec<(String, String, usize)> {
        let mut out: Vec<(String, String, usize)> = Vec::new();
        for r in &self.records {
            match out.iter_mut().find(|(s, a, _)| *s == r.stencil && *a == r.arch) {
                Some((_, _, n)) => *n += 1,
                None => out.push((r.stencil.clone(), r.arch.clone(), 1)),
            }
        }
        out
    }

    /// Serialize to the canonical single-line JSON form — fixed field
    /// order, journal float formatting, records pre-sorted — so equal
    /// indexes are equal byte strings.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(256 + self.records.len() * 160);
        let _ = write!(o, "{{\"kb_version\":{KB_VERSION},\"records\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"stencil\":");
            json::write_escaped(&mut o, &r.stencil);
            o.push_str(",\"arch\":");
            json::write_escaped(&mut o, &r.arch);
            o.push_str(",\"setting\":");
            json::write_escaped(&mut o, &r.setting);
            o.push_str(",\"time_ms\":");
            json::write_f64(&mut o, r.time_ms);
            o.push_str(",\"source\":");
            json::write_escaped(&mut o, &r.source);
            o.push_str(",\"origin\":");
            json::write_escaped(&mut o, &r.origin);
            o.push('}');
        }
        o.push_str("]}");
        o
    }

    /// Parse a `kb.json` document, rejecting unknown versions.
    pub fn from_json(text: &str) -> Result<KnowledgeBase, String> {
        let v = json::parse(text.trim())?;
        let version = v.get("kb_version").and_then(Value::as_u64).ok_or("missing kb_version")?;
        if version != KB_VERSION {
            return Err(format!("kb version {version}, this build understands {KB_VERSION}"));
        }
        let s = |r: &Value, key: &str| -> String {
            r.get(key).and_then(Value::as_str).unwrap_or("?").to_string()
        };
        let mut records = Vec::new();
        for r in v.get("records").and_then(Value::as_arr).unwrap_or(&[]) {
            records.push(KbRecord {
                stencil: s(r, "stencil"),
                arch: s(r, "arch"),
                setting: s(r, "setting"),
                time_ms: r.get("time_ms").and_then(Value::as_f64).unwrap_or(f64::INFINITY),
                source: s(r, "source"),
                origin: s(r, "origin"),
            });
        }
        Ok(KnowledgeBase { records })
    }

    /// Where a store's index lives.
    pub fn path_in(store_dir: &Path) -> std::path::PathBuf {
        store_dir.join(KB_FILE)
    }

    /// Write the index into a store directory (trailing newline, like
    /// the archive's summary files).
    pub fn save(&self, store_dir: &Path) -> Result<(), String> {
        let path = Self::path_in(store_dir);
        std::fs::write(&path, self.to_json() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Load a store's index. `Ok(None)` when the store has no `kb.json`
    /// (the cold-path case — absent and empty indexes behave alike).
    pub fn load(store_dir: &Path) -> Result<Option<KnowledgeBase>, String> {
        let path = Self::path_in(store_dir);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        Self::from_json(&text).map(Some).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_telemetry::{event, strip_wall_fields, Field, FieldValue, Telemetry};
    use std::path::PathBuf;

    fn journal(stencil: &str, arch: &str, samples: &[(&str, f64)]) -> Vec<String> {
        let tel = Telemetry::in_memory();
        tel.meta(&[
            Field::new("stencil", FieldValue::Str(stencil)),
            Field::new("arch", FieldValue::Str(arch)),
            Field::new("tuner", FieldValue::Str("Random")),
            Field::new("seed", FieldValue::U64(1)),
        ]);
        event!(tel, "iteration", iteration = 1u32, v_s = 1.0, best_ms = 2.0, evals = 8u32);
        for (s, t) in samples {
            event!(tel, "sample", setting = *s, time_ms = *t);
        }
        event!(tel, "outcome", tuner = "Random", best_ms = 2.0, evaluations = 8u32, search_s = 1.0);
        tel.finish(1.0);
        tel.lines().unwrap().iter().map(|l| strip_wall_fields(l)).collect()
    }

    fn tmp_store(tag: &str) -> (PathBuf, JournalStore) {
        let d = std::env::temp_dir().join(format!("cst_kb_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        let store = JournalStore::open(&d).unwrap();
        (d, store)
    }

    fn baseline_str() -> String {
        Setting::baseline().to_string()
    }

    #[test]
    fn build_extracts_sorted_deduped_records_with_provenance() {
        let (dir, store) = tmp_store("build");
        let s1 = baseline_str();
        store.ingest_lines("run-b", &journal("j3d7pt", "a100", &[(&s1, 2.5)])).unwrap();
        store.ingest_lines("run-a", &journal("cheby", "v100", &[(&s1, 4.0), (&s1, 4.0)])).unwrap();
        let build = KnowledgeBase::build(&store).unwrap();
        assert!(build.warnings.is_empty(), "{:?}", build.warnings);
        // Duplicate (setting, time) within one run collapses; order is
        // stencil-major.
        assert_eq!(build.kb.records.len(), 2);
        assert_eq!(build.kb.records[0].stencil, "cheby");
        assert_eq!(build.kb.records[1].stencil, "j3d7pt");
        let r = &build.kb.records[1];
        assert_eq!(r.arch, "a100");
        assert_eq!(r.source, "run-b");
        assert_eq!(r.time_ms, 2.5);
        // Provenance matches the archived bytes.
        let bytes = std::fs::read(store.path_of("run-b")).unwrap();
        assert_eq!(r.origin, content_hash(&bytes));
        assert!(r.parsed_setting().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_foreign_summaries_are_skipped_with_warnings() {
        let (dir, store) = tmp_store("skip");
        store.ingest_lines("good", &journal("j3d7pt", "a100", &[(&baseline_str(), 2.0)])).unwrap();
        std::fs::write(store.path_of("corrupt"), "not json at all").unwrap();
        std::fs::write(store.path_of("foreign"), r#"{"summary_version":99}"#).unwrap();
        std::fs::write(store.path_of("latin1"), b"{\"stencil\":\"caf\xe9\"}").unwrap();
        let build = KnowledgeBase::build(&store).unwrap();
        assert_eq!(build.kb.records.len(), 1);
        let path = |name: &str| store.path_of(name).display().to_string();
        assert_eq!(
            build.warnings,
            [
                format!("skipping {}: line 1: expected 'null' at byte 0", path("corrupt")),
                format!(
                    "skipping {}: line 1: summary version 99, this build understands 1",
                    path("foreign")
                ),
                format!(
                    "skipping cannot read {}: stream did not contain valid UTF-8",
                    path("latin1")
                ),
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_sample_settings_are_skipped_per_record() {
        let (dir, store) = tmp_store("badset");
        let lines =
            journal("j3d7pt", "a100", &[("TB_x=not-a-number", 1.0), (&baseline_str(), 2.0)]);
        store.ingest_lines("mixed", &lines).unwrap();
        let build = KnowledgeBase::build(&store).unwrap();
        assert_eq!(build.kb.records.len(), 1);
        assert_eq!(build.warnings.len(), 1);
        assert!(build.warnings[0].contains("mixed"), "{}", build.warnings[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_times_carry_no_label() {
        let (dir, store) = tmp_store("inf");
        let lines = journal("j3d7pt", "a100", &[(&baseline_str(), f64::INFINITY)]);
        store.ingest_lines("faulted", &lines).unwrap();
        let build = KnowledgeBase::build(&store).unwrap();
        assert!(build.kb.records.is_empty());
        assert!(build.warnings.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_round_trips_byte_exactly_and_rejects_foreign_versions() {
        let (dir, store) = tmp_store("json");
        store.ingest_lines("run", &journal("j3d7pt", "a100", &[(&baseline_str(), 2.5)])).unwrap();
        let kb = KnowledgeBase::build(&store).unwrap().kb;
        let j = kb.to_json();
        let back = KnowledgeBase::from_json(&j).unwrap();
        assert_eq!(back, kb);
        assert_eq!(back.to_json(), j);
        let foreign = j.replace("\"kb_version\":1", "\"kb_version\":7");
        assert!(KnowledgeBase::from_json(&foreign).unwrap_err().contains("version 7"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_load_round_trip_and_absent_index_is_none() {
        let (dir, store) = tmp_store("io");
        assert_eq!(KnowledgeBase::load(store.dir()).unwrap(), None);
        store.ingest_lines("run", &journal("cheby", "v100", &[(&baseline_str(), 3.0)])).unwrap();
        let kb = KnowledgeBase::build(&store).unwrap().kb;
        kb.save(store.dir()).unwrap();
        assert_eq!(KnowledgeBase::load(store.dir()).unwrap(), Some(kb.clone()));
        assert_eq!(kb.pairs(), vec![("cheby".to_string(), "v100".to_string(), 1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
