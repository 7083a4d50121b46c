//! The journal archive: a directory of `*.summary.json` records.
//!
//! [`JournalStore`] owns one directory (`results/obs/` by convention) and
//! maps run names to summary files. Ingesting a journal summarizes it
//! ([`crate::summarize`]) and writes the summary under a caller-chosen
//! name; later sessions list and load summaries without touching the
//! original journals, which can be gigabytes across a sweep while the
//! archive stays kilobytes.

use crate::profile::{profile_summary, Profile};
use crate::summary::{summarize, RunSummary};
use cst_telemetry::journal;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// File suffix of archived summaries.
const SUFFIX: &str = ".summary.json";

/// A directory of run summaries, addressed by run name.
#[derive(Debug, Clone)]
pub struct JournalStore {
    dir: PathBuf,
}

impl JournalStore {
    /// Open (creating if needed) the archive directory.
    pub fn open(dir: &Path) -> Result<JournalStore, String> {
        fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create archive dir {}: {e}", dir.display()))?;
        Ok(JournalStore { dir: dir.to_path_buf() })
    }

    /// The archive directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where a run's summary lives.
    pub fn path_of(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}{SUFFIX}"))
    }

    /// Summarize a journal's lines and archive the summary under `name`.
    /// Returns the stored summary.
    pub fn ingest_lines(&self, name: &str, lines: &[String]) -> Result<RunSummary, String> {
        let summary = summarize(name, lines)?;
        let path = self.path_of(name);
        fs::write(&path, summary.to_json() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(summary)
    }

    /// Summarize a journal file (JSONL) and archive it. The run name
    /// defaults to the journal's file stem unless `name` is given.
    pub fn ingest_file(&self, journal: &Path, name: Option<&str>) -> Result<RunSummary, String> {
        let lines: Vec<String> = read_text(journal)?.lines().map(str::to_string).collect();
        let stem = journal.file_stem().and_then(|s| s.to_str()).unwrap_or("run");
        // Summarize errors carry `line N:`; prefix the journal path so a
        // failed sweep ingest names the offending file.
        self.ingest_lines(name.unwrap_or(stem), &lines)
            .map_err(|e| format!("{}: {e}", journal.display()))
    }

    /// Load one archived summary by name.
    pub fn load(&self, name: &str) -> Result<RunSummary, String> {
        let path = self.path_of(name);
        parse_summary(&path, &read_text(&path)?)
    }

    /// Parse the bytes of `name`'s summary file, already read, with the
    /// errors [`JournalStore::load`] reports for the same bytes.
    pub fn parse(&self, name: &str, bytes: &[u8]) -> Result<RunSummary, String> {
        let path = self.path_of(name);
        // `Read for &[u8]` rejects non-UTF-8 with the error
        // `fs::read_to_string` gives.
        let mut text = String::new();
        io::Read::read_to_string(&mut &bytes[..], &mut text)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parse_summary(&path, &text)
    }

    /// Names of every archived run, sorted for deterministic iteration.
    pub fn list(&self) -> Result<Vec<String>, String> {
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| format!("cannot list {}: {e}", self.dir.display()))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot list {}: {e}", self.dir.display()))?;
            if let Some(name) = entry.file_name().to_str().and_then(|f| f.strip_suffix(SUFFIX)) {
                names.push(name.to_string());
            }
        }
        names.sort();
        Ok(names)
    }

    /// Load every archived summary, in name order.
    pub fn load_all(&self) -> Result<Vec<RunSummary>, String> {
        self.list()?.iter().map(|n| self.load(n)).collect()
    }
}

fn read_text(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// A summary is one JSON object on its first line.
fn parse_summary(path: &Path, text: &str) -> Result<RunSummary, String> {
    RunSummary::from_json(text).map_err(|e| format!("{}: line 1: {e}", path.display()))
}

/// A run loaded by [`load_run`]: its summary and its span profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The run's summary.
    pub summary: RunSummary,
    /// The run's span profile: the journal's span tree, or a summary's
    /// flat per-stage rows.
    pub profile: Profile,
}

/// Load a run from any supported file: a `*.summary.json` archive record
/// or a raw JSONL journal (detected by its `journal_start` first line,
/// which a summary — a single JSON object keyed `summary_version` — never
/// has). The one place that tells the two apart, so `cstuner obs
/// diff`/`gate`/`profile` accept either form.
pub fn load_run(path: &Path) -> Result<Run, String> {
    let text = read_text(path)?;
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("run");
    let first = text.lines().next().unwrap_or("");
    if first.contains("\"type\":\"journal_start\"") {
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        // Validation errors carry `line N:`; prefix the file path.
        let j = journal::read(&lines).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Run {
            summary: RunSummary::from_journal(stem, &j),
            profile: Profile::from_journal(stem, j),
        })
    } else {
        let summary = parse_summary(path, &text)?;
        Ok(Run { profile: profile_summary(stem, &summary), summary })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_telemetry::{event, strip_wall_fields, Telemetry};

    fn journal() -> Vec<String> {
        let tel = Telemetry::in_memory();
        tel.meta(&[]);
        event!(tel, "iteration", iteration = 1u32, v_s = 1.0, best_ms = 2.0, evals = 8u32);
        event!(tel, "outcome", tuner = "t", best_ms = 2.0, evaluations = 8u32, search_s = 1.0);
        tel.finish(1.0);
        tel.lines().unwrap().iter().map(|l| strip_wall_fields(l)).collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cst_obs_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn ingest_list_load_round_trip() {
        let dir = tmp_dir("rt");
        let store = JournalStore::open(&dir).unwrap();
        let stored = store.ingest_lines("run-a", &journal()).unwrap();
        store.ingest_lines("run-b", &journal()).unwrap();
        assert_eq!(store.list().unwrap(), ["run-a", "run-b"]);
        assert_eq!(store.load("run-a").unwrap(), stored);
        assert_eq!(store.load_all().unwrap().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_file_uses_the_journal_stem() {
        let dir = tmp_dir("stem");
        let store = JournalStore::open(&dir).unwrap();
        let jpath = dir.join("nightly.jsonl");
        fs::create_dir_all(&dir).unwrap();
        fs::write(&jpath, journal().join("\n")).unwrap();
        store.ingest_file(&jpath, None).unwrap();
        assert_eq!(store.list().unwrap(), ["nightly"]);
        store.ingest_file(&jpath, Some("renamed")).unwrap();
        assert_eq!(store.list().unwrap(), ["nightly", "renamed"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_run_detects_journal_vs_summary() {
        let dir = tmp_dir("detect");
        fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("run.jsonl");
        fs::write(&jpath, journal().join("\n")).unwrap();
        let from_journal = load_run(&jpath).unwrap();
        assert_eq!(from_journal.summary, summarize("run", &journal()).unwrap());
        let spath = dir.join("run.summary.json");
        fs::write(&spath, from_journal.summary.to_json()).unwrap();
        let from_summary = load_run(&spath).unwrap();
        assert_eq!(from_journal.summary, from_summary.summary);
        assert_eq!(from_summary.profile, profile_summary("run.summary", &from_summary.summary));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_corrupt_files_are_clean_errors() {
        let dir = tmp_dir("err");
        let store = JournalStore::open(&dir).unwrap();
        assert!(store.load("nope").is_err());
        fs::write(store.path_of("bad"), "not json").unwrap();
        assert!(store.load("bad").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_errors_name_the_file_and_line() {
        let dir = tmp_dir("loc");
        fs::create_dir_all(&dir).unwrap();
        // A journal whose second line is corrupt.
        let mut lines = journal();
        lines[1] = "{broken".to_string();
        let jpath = dir.join("corrupt.jsonl");
        fs::write(&jpath, lines.join("\n")).unwrap();
        let err = load_run(&jpath).unwrap_err();
        assert!(err.contains("corrupt.jsonl"), "{err}");
        assert!(err.contains("line 2"), "{err}");
        let store = JournalStore::open(&dir).unwrap();
        let err = store.ingest_file(&jpath, None).unwrap_err();
        assert!(err.contains("corrupt.jsonl") && err.contains("line 2"), "{err}");
        // A corrupt summary points at its (single) line.
        let spath = dir.join("bad.summary.json");
        fs::write(&spath, "{}").unwrap();
        let err = load_run(&spath).unwrap_err();
        assert!(err.contains("bad.summary.json"), "{err}");
        assert!(err.contains("line 1"), "{err}");
        let err = store.load("bad").unwrap_err();
        assert!(err.contains("bad.summary.json") && err.contains("line 1"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
