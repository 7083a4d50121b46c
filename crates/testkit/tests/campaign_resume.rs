//! Campaign executor integration: resume-after-interruption byte
//! equality, local/remote backend equivalence against a real loopback
//! daemon, and the end-to-end campaign gate.
//!
//! The resume contract under test is ISSUE-8's acceptance criterion: a
//! campaign interrupted mid-matrix and re-invoked with the same spec
//! must complete without re-executing archived cells, and its final
//! archive — hence every dashboard and verdict derived from it — must be
//! byte-identical to a never-interrupted run.

use cst_campaign::{
    aggregate, campaign_json, gate_campaign, load_cells, render_campaign, run_campaign, Backend,
    CampaignRun, CampaignSpec, CellState,
};
use cst_obs::JournalStore;
use cst_testkit::LoopbackServer;
use std::fs;
use std::path::PathBuf;

fn spec_with_tuners(tuners: &str) -> CampaignSpec {
    CampaignSpec::from_json(&format!(
        r#"{{"campaign":"itest","stencils":["j3d7pt"],"tuners":{tuners},
            "budgets_s":[4.0],"seeds":[0,1],"quick":true,"fault":"off"}}"#
    ))
    .unwrap()
}

fn spec() -> CampaignSpec {
    // Two tuners × two seeds: small enough for CI, wide enough that an
    // interruption lands mid-matrix. FaultSpec::Off pins the testbed so
    // the expected bytes are identical on both CI legs.
    spec_with_tuners(r#"["random","grid"]"#)
}

fn run_local(spec: &CampaignSpec, store: &JournalStore) -> CampaignRun {
    run_campaign(spec, store, &Backend::InProcess, &mut |_, _, _, _| {}).unwrap()
}

fn tmp_store(tag: &str) -> (PathBuf, JournalStore) {
    let dir = std::env::temp_dir().join(format!("cst_campaign_itest_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = JournalStore::open(&dir).unwrap();
    (dir, store)
}

fn archive_bytes(spec: &CampaignSpec, store: &JournalStore) -> Vec<(String, Vec<u8>)> {
    spec.cells()
        .unwrap()
        .iter()
        .map(|c| (c.name(), fs::read(store.path_of(&c.name())).unwrap()))
        .collect()
}

#[test]
fn interrupted_campaign_resumes_to_identical_bytes() {
    let spec = spec();
    let (dir_a, full_store) = tmp_store("full");
    let (dir_b, cut_store) = tmp_store("cut");

    // Reference: one uninterrupted run.
    let full = run_local(&spec, &full_store);
    assert_eq!((full.executed, full.cached), (4, 0));

    // Interrupt mid-matrix after the first tuner's 2 of 4 cells, then
    // re-invoke. Running the first tuner's sub-spec stands in for the
    // interruption: cell names hash the request, not the spec's name.
    let cut = run_local(&spec_with_tuners(r#"["random"]"#), &cut_store);
    assert_eq!((cut.executed, cut.cached), (2, 0));
    let (_, missing) = load_cells(&spec, &cut_store).unwrap();
    assert_eq!(missing.len(), 2);
    let mut states = Vec::new();
    let resumed = run_campaign(&spec, &cut_store, &Backend::InProcess, &mut |_, _, _, state| {
        states.push(state);
    })
    .unwrap();
    assert_eq!((resumed.executed, resumed.cached), (2, 2));
    assert_eq!(
        states,
        [CellState::Cached, CellState::Cached, CellState::Ran, CellState::Ran],
        "archived cells must be skipped, not re-executed"
    );

    // The interrupted-then-resumed archive is byte-identical.
    assert_eq!(archive_bytes(&spec, &full_store), archive_bytes(&spec, &cut_store));

    // ... and so is everything rendered from it: dashboard and report.
    let (have_a, miss_a) = load_cells(&spec, &full_store).unwrap();
    let (have_b, miss_b) = load_cells(&spec, &cut_store).unwrap();
    assert!(miss_a.is_empty() && miss_b.is_empty());
    let stats_a = aggregate(&have_a);
    let stats_b = aggregate(&have_b);
    assert_eq!(
        render_campaign(&spec.name, &stats_a, &[]),
        render_campaign(&spec.name, &stats_b, &[])
    );
    assert_eq!(campaign_json(&spec.name, &stats_a, &[]), campaign_json(&spec.name, &stats_b, &[]));

    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

#[test]
fn daemon_backend_archives_the_same_bytes_as_in_process() {
    let spec = spec();
    let (dir_a, local_store) = tmp_store("local");
    let (dir_b, remote_store) = tmp_store("remote");
    run_local(&spec, &local_store);

    let server = LoopbackServer::start(2, 8);
    let daemon = Backend::Daemon(server.addr().to_string());
    let remote = run_campaign(&spec, &remote_store, &daemon, &mut |_, _, _, _| {}).unwrap();
    assert_eq!((remote.executed, remote.cached), (4, 0));
    server.shutdown();

    // A served cell and a local cell archive identical summaries: the
    // daemon streams the same wall-stripped deterministic journal core.
    assert_eq!(archive_bytes(&spec, &local_store), archive_bytes(&spec, &remote_store));

    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

#[test]
fn campaign_gate_fails_on_an_injected_per_tuner_slowdown() {
    let spec = spec();
    let (dir, store) = tmp_store("gate");
    run_local(&spec, &store);
    let (baseline, _) = load_cells(&spec, &store).unwrap();

    // Identical candidate: ok, exit 0.
    let gate = gate_campaign(&baseline, &baseline);
    assert_eq!(gate.exit_code(), 0);

    // Inject a 10% best_ms slowdown into every `grid` cell — past the 5%
    // regress band, and `grid` is deterministic across seeds so there is
    // no CV slack to soak it.
    let candidate: Vec<_> = baseline
        .iter()
        .map(|(c, s)| {
            let mut s = s.clone();
            if c.request.tuner == "grid" {
                s.best_ms *= 1.10;
            }
            (c.clone(), s)
        })
        .collect();
    let gate = gate_campaign(&baseline, &candidate);
    assert_eq!(gate.exit_code(), 1);
    let slow: Vec<_> = gate
        .scenarios
        .iter()
        .filter(|s| s.report.verdict == cst_obs::DriftClass::Regress)
        .map(|s| s.scenario.as_str())
        .collect();
    assert_eq!(slow, ["j3d7pt-a100-grid-b4p0"], "only the slowed tuner regresses");

    let _ = fs::remove_dir_all(&dir);
}
