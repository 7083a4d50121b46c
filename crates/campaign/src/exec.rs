//! The campaign executor: resumable fan-out over the cell list.
//!
//! [`run_campaign`] drives one spec against one campaign-scoped
//! [`JournalStore`]. The archive doubles as the checkpoint: before
//! anything runs, every cell is probed by its content-hashed name, and
//! cells whose summary already parses are *cached* — reported but not
//! re-executed. Only the pending remainder runs, fanned across
//! in-process lanes (vendored rayon) or submitted one-by-one to an
//! external `cst-serve` daemon over the JSONL protocol.
//!
//! Every executed cell's journal is wall-stripped
//! ([`cst_telemetry::strip_wall_fields`]) before ingest, and ingest
//! happens serially in spec order, so the final archive bytes are a pure
//! function of the spec — independent of worker interleaving, of which
//! backend ran which cell, and of how many times the campaign was
//! interrupted and resumed along the way.

use crate::spec::{CampaignSpec, Cell};
use cst_obs::{JournalStore, RunSummary};
use cst_serve::proto;
use cst_serve::{run_session, Connection, StreamEvent, TuneRequest};
use cst_telemetry::{strip_wall_fields, Telemetry};
use rayon::prelude::*;

/// Where pending cells execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Backend {
    /// Run sessions in this process, fanned across rayon lanes.
    InProcess,
    /// Submit each cell to a `cst-serve` daemon at `host:port` over the
    /// JSONL protocol, one connection per cell.
    Daemon(String),
}

/// How one cell was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// Found already archived under its identity hash; skipped.
    Cached,
    /// Executed this invocation and newly ingested.
    Ran,
}

/// One completed cell: its summary, and (for fresh runs) the
/// wall-stripped journal it was summarized from.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell that ran (or was found cached).
    pub cell: Cell,
    /// The archived summary.
    pub summary: RunSummary,
    /// True when the summary came from the archive, not a fresh run.
    pub cached: bool,
    /// The wall-stripped journal lines; `None` for cached cells (the
    /// archive keeps summaries, not journals).
    pub journal: Option<Vec<String>>,
}

/// The result of one [`run_campaign`] invocation.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// Every completed cell, in spec (expansion) order.
    pub cells: Vec<CellRun>,
    /// Cells executed this invocation.
    pub executed: usize,
    /// Cells satisfied from the archive.
    pub cached: usize,
}

/// Run (or resume) a campaign, executing its pending cells on
/// `backend`. `progress` is called once per completed cell with its
/// 1-based position in the expansion, the total cell count, the cell,
/// and how it was satisfied — cached cells during the pre-scan, executed
/// cells as their journals are ingested.
///
/// Fails on the first cell whose session or ingest fails, naming the
/// cell; cells already ingested stay archived, so a fixed-up re-run
/// resumes past them.
pub fn run_campaign(
    spec: &CampaignSpec,
    store: &JournalStore,
    backend: &Backend,
    progress: &mut dyn FnMut(usize, usize, &Cell, CellState),
) -> Result<CampaignRun, String> {
    let cells = spec.cells()?;
    let total = cells.len();
    let mut done: Vec<Option<CellRun>> = vec![None; total];
    let mut pending: Vec<usize> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        // A summary that fails to parse (truncated write, manual edit)
        // counts as absent: the cell simply re-runs.
        match store.load(&cell.name()) {
            Ok(summary) => {
                progress(i + 1, total, cell, CellState::Cached);
                done[i] =
                    Some(CellRun { cell: cell.clone(), summary, cached: true, journal: None });
            }
            Err(_) => pending.push(i),
        }
    }
    let cached = total - pending.len();

    // Execute pending cells: rayon fan-out in process, serial submission
    // to a daemon. Either way `journals` comes back in `pending` order.
    let journals: Vec<(usize, Result<Vec<String>, String>)> = match backend {
        Backend::InProcess => {
            pending.par_iter().map(|&i| (i, run_cell_local(&cells[i].request))).collect()
        }
        Backend::Daemon(addr) => {
            pending.iter().map(|&i| (i, run_cell_remote(addr, &cells[i].request))).collect()
        }
    };

    // Ingest serially, in spec order, so archive writes (and progress
    // lines) are deterministic regardless of worker interleaving.
    let mut executed = 0;
    for (i, lines) in journals {
        let cell = &cells[i];
        let lines = lines.map_err(|e| format!("cell `{}`: {e}", cell.name()))?;
        let summary = store
            .ingest_lines(&cell.name(), &lines)
            .map_err(|e| format!("cell `{}`: {e}", cell.name()))?;
        progress(i + 1, total, cell, CellState::Ran);
        done[i] =
            Some(CellRun { cell: cell.clone(), summary, cached: false, journal: Some(lines) });
        executed += 1;
    }

    Ok(CampaignRun { cells: done.into_iter().flatten().collect(), executed, cached })
}

/// Drop every archived summary belonging to `spec`'s cells (the CLI's
/// `--fresh`). Cells of *other* specs sharing the store are untouched.
/// Returns how many summaries were removed.
pub fn forget_cells(spec: &CampaignSpec, store: &JournalStore) -> Result<usize, String> {
    let mut removed = 0;
    for cell in spec.cells()? {
        let path = store.path_of(&cell.name());
        if path.exists() {
            std::fs::remove_file(&path)
                .map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Run one cell in this process: an in-memory journal through
/// [`run_session`], wall-stripped.
fn run_cell_local(req: &TuneRequest) -> Result<Vec<String>, String> {
    let tel = Telemetry::in_memory();
    run_session(req, &tel, None).map_err(|e| e.to_string())?;
    let lines = tel.lines().expect("in-memory telemetry records lines");
    Ok(lines.iter().map(|l| strip_wall_fields(l)).collect())
}

/// Run one cell on a `cst-serve` daemon: one connection, one request,
/// journal records collected until `session_done` by the client's stream
/// reader; they are wall-stripped client-side so local and remote
/// backends archive identical bytes.
fn run_cell_remote(addr: &str, req: &TuneRequest) -> Result<Vec<String>, String> {
    let mut conn = Connection::connect(addr)?;
    conn.send_line(&proto::tune_request_line(req))?;
    let mut journal = Vec::new();
    conn.follow_session(|event| {
        if let StreamEvent::Record(line) = event {
            journal.push(strip_wall_fields(line));
        }
    })
    .map_err(|e| e.to_string())?;
    Ok(journal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_cells;
    use cst_serve::FaultSpec;
    use std::fs;
    use std::path::PathBuf;

    fn spec_with_seeds(seeds: &str) -> CampaignSpec {
        CampaignSpec::from_json(&format!(
            r#"{{"campaign":"exec-test","stencils":["j3d7pt"],"tuners":["random"],
                "budgets_s":[4.0],"seeds":{seeds},"quick":true,"fault":"off"}}"#
        ))
        .unwrap()
    }

    fn tiny_spec() -> CampaignSpec {
        spec_with_seeds("[0,1]")
    }

    fn run(spec: &CampaignSpec, store: &JournalStore) -> CampaignRun {
        run_campaign(spec, store, &Backend::InProcess, &mut |_, _, _, _| {}).unwrap()
    }

    fn tmp_store(tag: &str) -> (PathBuf, JournalStore) {
        let dir =
            std::env::temp_dir().join(format!("cst_campaign_exec_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = JournalStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn runs_then_resumes_from_the_archive() {
        let spec = tiny_spec();
        let (dir, store) = tmp_store("resume");
        let mut seen = Vec::new();
        let first = run_campaign(&spec, &store, &Backend::InProcess, &mut |i, n, _, s| {
            seen.push((i, n, s));
        })
        .unwrap();
        assert_eq!((first.executed, first.cached), (2, 0));
        assert_eq!(first.cells.len(), 2);
        assert!(first.cells.iter().all(|c| !c.cached && c.journal.is_some()));
        assert_eq!(seen, [(1, 2, CellState::Ran), (2, 2, CellState::Ran)]);
        // Second invocation: everything cached, summaries identical.
        let rerun = run(&spec, &store);
        assert_eq!((rerun.executed, rerun.cached), (0, 2));
        assert!(rerun.cells.iter().all(|c| c.cached && c.journal.is_none()));
        for (a, b) in first.cells.iter().zip(&rerun.cells) {
            assert_eq!(a.summary, b.summary);
            assert_eq!(a.cell, b.cell);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_interrupted_run_resumes_to_identical_bytes() {
        // The first seed's sub-spec stands in for a run cut short after
        // one cell: cell names hash the request, not the spec's name.
        let spec = tiny_spec();
        let (dir_a, full_store) = tmp_store("full");
        let (dir_b, cut_store) = tmp_store("cut");
        let full = run(&spec, &full_store);
        let cut = run(&spec_with_seeds("[0]"), &cut_store);
        assert_eq!((cut.executed, cut.cached), (1, 0));
        let resumed = run(&spec, &cut_store);
        assert_eq!((resumed.executed, resumed.cached), (1, 1));
        // Interrupted-then-resumed archive is byte-identical to the
        // uninterrupted one.
        for cell in full.cells.iter().map(|c| &c.cell) {
            let a = fs::read(full_store.path_of(&cell.name())).unwrap();
            let b = fs::read(cut_store.path_of(&cell.name())).unwrap();
            assert_eq!(a, b, "archive bytes diverged for {}", cell.name());
        }
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn corrupt_summaries_rerun_instead_of_failing() {
        let spec = tiny_spec();
        let (dir, store) = tmp_store("corrupt");
        let first = run(&spec, &store);
        let victim = first.cells[0].cell.name();
        fs::write(store.path_of(&victim), "{truncated").unwrap();
        let healed = run(&spec, &store);
        assert_eq!((healed.executed, healed.cached), (1, 1));
        assert_eq!(healed.cells[0].summary, first.cells[0].summary);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn forget_cells_clears_only_this_spec() {
        let spec = tiny_spec();
        let (dir, store) = tmp_store("forget");
        run(&spec, &store);
        // A foreign record in the same store survives --fresh.
        fs::write(store.path_of("someone-else"), "{}").unwrap();
        assert_eq!(forget_cells(&spec, &store).unwrap(), 2);
        assert_eq!(store.list().unwrap(), ["someone-else"]);
        assert_eq!(forget_cells(&spec, &store).unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_identity_shields_the_archive_from_spec_edits() {
        let spec = tiny_spec();
        let (dir, store) = tmp_store("shield");
        run(&spec, &store);
        // Same axes, different fault knob: nothing is trusted as cached.
        let mut edited = spec.clone();
        edited.fault = Some(FaultSpec::Hostile { seed: 3 });
        let (have, missing) = load_cells(&edited, &store).unwrap();
        assert_eq!((have.len(), missing.len()), (0, 2));
        let _ = fs::remove_dir_all(&dir);
    }
}
