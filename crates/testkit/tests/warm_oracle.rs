//! Differential oracles for warm-start transfer tuning (`cst-transfer`).
//!
//! The warm-start contract is that a knowledge base may change only a
//! tuner's *starting points*, never its evaluator or journal schema:
//!
//! - a session whose `warm` store has no `kb.json` — or an empty one —
//!   is bit-identical to the cold path (the differential oracle);
//! - building a knowledge base from the same store is byte-deterministic,
//!   across repeated builds and across freshly ingested copies;
//! - a populated knowledge base actually seeds the session, and seeded
//!   sessions reproduce bit-for-bit under a fixed (store, seed).

use cst_obs::JournalStore;
use cst_serve::{run_session, FaultSpec, SessionOutcome, TuneRequest};
use cst_telemetry::{schema, strip_wall_fields, Telemetry};
use cst_testkit::{arb_setting, PropRunner};
use cst_transfer::KnowledgeBase;
use std::fs;
use std::path::PathBuf;

const TUNERS: [&str; 3] = ["random", "forest", "anneal"];

fn request(tuner: &str, seed: u64, warm: Option<&str>) -> TuneRequest {
    // FaultSpec::Off pins the testbed so both CI legs see the same bytes.
    let mut req = TuneRequest::build(
        Some("j3d7pt"),
        None,
        Some(tuner),
        Some(seed),
        Some(6.0),
        true,
        Some(FaultSpec::Off),
    )
    .unwrap();
    req.warm = warm.map(str::to_string);
    req
}

fn run(req: &TuneRequest) -> (Vec<String>, SessionOutcome) {
    let tel = Telemetry::in_memory();
    let session = run_session(req, &tel, None).expect("session succeeds");
    let lines = tel.lines().expect("in-memory sink").iter().map(|l| strip_wall_fields(l)).collect();
    (lines, session)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cst_warm_itest_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A store whose `kb.json` is built from one cold run per listed tuner.
fn populated_store(tag: &str, seeds: &[u64]) -> (PathBuf, JournalStore) {
    let dir = tmp_dir(tag);
    let store = JournalStore::open(&dir).unwrap();
    for (i, &seed) in seeds.iter().enumerate() {
        let (lines, _) = run(&request("random", seed, None));
        store.ingest_lines(&format!("feed-{i}"), &lines).unwrap();
    }
    let build = KnowledgeBase::build(&store).unwrap();
    assert!(build.warnings.is_empty(), "{:?}", build.warnings);
    assert!(!build.kb.records.is_empty(), "cold runs must feed the KB");
    build.kb.save(store.dir()).unwrap();
    (dir, store)
}

#[test]
fn absent_and_empty_kb_warm_is_bit_identical_to_cold() {
    // The oracle behind the hard contract: `--warm` over a store with no
    // knowledge base (or an empty one) must be the cold path, to the bit.
    let dir = tmp_dir("absent");
    let store = JournalStore::open(&dir).unwrap();
    for (i, tuner) in TUNERS.iter().enumerate() {
        let seed = i as u64;
        let (cold_lines, cold) = run(&request(tuner, seed, None));
        assert_eq!(cold.warm, None, "cold sessions must not report warm info");

        // No kb.json in the store: empty-mode warm, identical bytes.
        let warm_req = request(tuner, seed, Some(store.dir().to_str().unwrap()));
        let (absent_lines, absent) = run(&warm_req);
        let info = absent.warm.expect("warm request reports warm info");
        assert_eq!((info.mode.as_str(), info.seeds), ("empty", 0));
        assert_eq!(absent_lines, cold_lines, "{tuner}: absent-KB warm drifted from cold");
        assert!(cst_testkit::outcomes_bit_equal(&absent.outcome, &cold.outcome).is_ok());

        // An explicitly empty kb.json behaves exactly like an absent one.
        KnowledgeBase::default().save(store.dir()).unwrap();
        let (empty_lines, empty) = run(&warm_req);
        assert_eq!(empty.warm.expect("warm info").mode, "empty");
        assert_eq!(empty_lines, cold_lines, "{tuner}: empty-KB warm drifted from cold");
        fs::remove_file(KnowledgeBase::path_in(store.dir())).unwrap();
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn populated_kb_seeds_the_session_deterministically() {
    let (dir, store) = populated_store("seeded", &[11, 12]);
    for (i, tuner) in TUNERS.iter().enumerate() {
        let req = request(tuner, 40 + i as u64, Some(store.dir().to_str().unwrap()));
        let (lines, session) = run(&req);
        schema::validate_journal(&lines).expect("warm journal validates");
        let info = session.warm.expect("warm info");
        assert!(info.seeds > 0, "{tuner}: populated KB produced no seeds");
        assert!(info.n_train > 0, "{tuner}: no training rows behind the seeds");
        assert!(
            matches!(info.mode.as_str(), "exact" | "observed"),
            "{tuner}: same-pair KB must not need transfer, got `{}`",
            info.mode
        );
        // Fixed (store, seed): the warm run reproduces bit-for-bit.
        let (again, session2) = run(&req);
        assert_eq!(again, lines, "{tuner}: warm run is not deterministic");
        assert_eq!(session2.warm.expect("warm info"), info);
        assert!(cst_testkit::outcomes_bit_equal(&session2.outcome, &session.outcome).is_ok());
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn warm_info_counts_only_the_seeds_the_tuner_keeps() {
    // csTuner and the grid sweep take no seeds: a populated KB must not
    // be reported (or counted by the daemon) as seeding them, and their
    // warm runs are their cold runs.
    let (dir, store) = populated_store("kept", &[31]);
    let warm = store.dir().to_str().unwrap();
    for tuner in ["cstuner", "grid"] {
        let (cold_lines, _) = run(&request(tuner, 5, None));
        let (warm_lines, session) = run(&request(tuner, 5, Some(warm)));
        assert_eq!(session.warm.expect("warm info").seeds, 0, "{tuner} kept seeds");
        assert_eq!(warm_lines, cold_lines, "{tuner}: dropped seeds changed the run");
    }
    let (_, session) = run(&request("random", 5, Some(warm)));
    assert!(session.warm.expect("warm info").seeds > 0, "random kept no seeds");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kb_rebuilds_are_byte_identical() {
    // Same store, two builds (and two saves): identical bytes on disk.
    let (dir, store) = populated_store("rebuild", &[21]);
    let first = fs::read(KnowledgeBase::path_in(store.dir())).unwrap();
    let build = KnowledgeBase::build(&store).unwrap();
    build.kb.save(store.dir()).unwrap();
    let second = fs::read(KnowledgeBase::path_in(store.dir())).unwrap();
    assert_eq!(first, second, "kb.json bytes changed across rebuilds");
    assert_eq!(build.kb.to_json(), KnowledgeBase::build(&store).unwrap().kb.to_json());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kb_extraction_is_byte_deterministic_across_generated_stores() {
    // Property: for any journaled setting, two stores ingesting the same
    // journals (and two builds of one store) index to identical bytes.
    use cst_telemetry::{event, Field, FieldValue};
    let journal = |setting: &str, time_ms: f64| -> Vec<String> {
        let tel = Telemetry::in_memory();
        tel.meta(&[
            Field::new("stencil", FieldValue::Str("j3d7pt")),
            Field::new("arch", FieldValue::Str("A100")),
            Field::new("tuner", FieldValue::Str("Random")),
            Field::new("seed", FieldValue::U64(1)),
        ]);
        event!(tel, "iteration", iteration = 1u32, v_s = 1.0, best_ms = time_ms, evals = 4u32);
        event!(tel, "sample", setting = setting, time_ms = time_ms);
        event!(
            tel,
            "outcome",
            tuner = "Random",
            best_ms = time_ms,
            evaluations = 4u32,
            search_s = 1.0
        );
        tel.finish(1.0);
        tel.lines().unwrap().iter().map(|l| strip_wall_fields(l)).collect()
    };
    let mut case = 0u64;
    PropRunner::new("kb-extraction-deterministic").cases(12).run(
        &arb_setting([32, 32, 32]),
        |setting| {
            case += 1;
            let text = setting.to_string();
            let time_ms = 1.0 + (case as f64) / 8.0;
            let dirs = [tmp_dir(&format!("prop_a_{case}")), tmp_dir(&format!("prop_b_{case}"))];
            let mut jsons = Vec::new();
            for dir in &dirs {
                let store = JournalStore::open(dir).map_err(|e| e.to_string())?;
                store.ingest_lines("gen", &journal(&text, time_ms)).map_err(|e| e.to_string())?;
                let build = KnowledgeBase::build(&store)?;
                let twice = KnowledgeBase::build(&store)?;
                if build.kb.to_json() != twice.kb.to_json() {
                    return Err("two builds of one store disagree".to_string());
                }
                if !build.warnings.is_empty() {
                    return Err(format!("unexpected warnings: {:?}", build.warnings));
                }
                jsons.push(build.kb.to_json());
                let _ = fs::remove_dir_all(dir);
            }
            if jsons[0] != jsons[1] {
                return Err("same journals, different kb bytes".to_string());
            }
            Ok(())
        },
    );
}
