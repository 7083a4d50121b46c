//! CLI surface tests: version reporting, unknown-flag rejection and
//! malformed daemon replies.
//!
//! These run the real `cstuner` binary with no daemon: flag validation
//! happens before any connection attempt, and the reply tests stand up a
//! fake peer.

use std::process::Command;

fn cstuner(args: &[&str]) -> std::process::Output {
    // CST_WARM is scrubbed so the version/list provider line is stable
    // regardless of the invoking shell's warm-start configuration.
    Command::new(env!("CARGO_BIN_EXE_cstuner"))
        .env_remove("CST_WARM")
        .args(args)
        .output()
        .expect("run cstuner")
}

#[test]
fn version_prints_crate_schema_and_registered_tuners() {
    let expected = format!(
        "cstuner {} (journal schema v{})\ntuners: {}\nwarm-start: kb schema v{}, no provider \
         configured (--warm DIR or CST_WARM)\n",
        env!("CARGO_PKG_VERSION"),
        cstuner::telemetry::SCHEMA_VERSION,
        cstuner::baselines::zoo::flag_list(),
        cstuner::transfer::KB_VERSION,
    );
    for spelling in ["version", "--version"] {
        let out = cstuner(&[spelling]);
        assert!(out.status.success(), "`cstuner {spelling}` failed");
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
    }
    // The registry must name every tuner the zoo ships, new ones included.
    for flag in ["cstuner", "garvey", "opentuner", "artemis", "random", "grid", "anneal", "forest"]
    {
        assert!(
            cstuner::baselines::zoo::flag_list().split('|').any(|f| f == flag),
            "missing {flag}"
        );
    }
}

#[test]
fn unknown_flags_are_rejected_with_a_did_you_mean_hint() {
    let out = cstuner(&["tune", "--sencil", "cheby"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag `--sencil` for `cstuner tune`"), "{err}");
    assert!(err.contains("did you mean `--stencil`?"), "{err}");

    let out = cstuner(&["obs", "dashboard", "--sotre", "/tmp/nowhere"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("did you mean `--store`?"), "{err}");
}

#[test]
fn unknown_flags_without_a_near_miss_list_the_supported_set() {
    let out = cstuner(&["tune", "--frobnicate", "9"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag `--frobnicate`"), "{err}");
    assert!(err.contains("supported: --stencil"), "{err}");
}

#[test]
fn client_flags_are_validated_before_connecting() {
    // A typo'd client flag must fail fast with exit 2, not hang on a
    // connection to a daemon that is not running.
    let out = cstuner(&["client", "tune", "--adr", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("did you mean `--addr`?"), "{err}");
}

#[test]
fn unknown_tuner_names_are_rejected_with_a_did_you_mean_hint() {
    let out = cstuner(&["tune", "--quick", "--tuner", "anneel"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown tuner `anneel`"), "{err}");
    assert!(err.contains("did you mean `anneal`?"), "{err}");

    // No near-miss: list the registered names instead of guessing.
    let out = cstuner(&["tune", "--quick", "--tuner", "bayesopt9000"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown tuner `bayesopt9000`"), "{err}");
    assert!(err.contains("cstuner|garvey|opentuner|artemis|random|grid|anneal|forest"), "{err}");
    assert!(!err.contains("did you mean"), "{err}");
}

#[test]
fn malformed_numeric_flags_are_rejected() {
    let out = cstuner(&["tune", "--quick", "--seed", "banana"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--seed expects a non-negative integer"), "{err}");

    // A seed a JSON number cannot hold exactly is refused, not rounded,
    // as on the wire and in a campaign spec.
    let out = cstuner(&["tune", "--quick", "--seed", "9007199254740993"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("seed must be at most 2^53 - 1"), "{err}");
}

#[test]
fn campaign_flags_are_validated_before_anything_runs() {
    let out = cstuner(&["campaign", "run", "/tmp/nonexistent-spec.json", "--stor", "/tmp/x"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag `--stor` for `cstuner campaign run`"), "{err}");
    assert!(err.contains("did you mean `--store`?"), "{err}");

    // `campaign gate` refuses to guess a baseline.
    let out = cstuner(&["campaign", "gate", "/tmp/nonexistent-spec.json"]);
    assert_eq!(out.status.code(), Some(2));

    // No subcommand: usage with exit 2.
    let out = cstuner(&["campaign"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: cstuner campaign"), "{err}");
}

#[test]
fn bad_campaign_specs_are_one_line_exit_2_errors() {
    let dir = std::env::temp_dir().join(format!("cst_cli_campaign_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("bad.json");
    std::fs::write(&spec, r#"{"campaign":"x","stencil":["j3d7pt"]}"#).unwrap();
    let out = cstuner(&["campaign", "status", spec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid campaign spec"), "{err}");
    assert!(err.contains("unknown key `stencil`"), "{err}");
    assert!(err.contains("did you mean `stencils`?"), "{err}");

    std::fs::write(&spec, r#"{"campaign":"x","stencils":["j3d7pt"],"seeds":[9007199254740993]}"#)
        .unwrap();
    let out = cstuner(&["campaign", "status", spec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("`seeds` entries must be integers from 0 to 2^53 - 1"), "{err}");

    // The largest `repeats` a JSON number carries is refused before any
    // seed list or cell is built.
    std::fs::write(&spec, r#"{"campaign":"x","stencils":["j3d7pt"],"repeats":9007199254740991}"#)
        .unwrap();
    let out = cstuner(&["campaign", "status", spec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("more than 10000 cells"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn obs_dashboard_json_is_machine_readable() {
    // An empty store renders the canonical empty document.
    let dir = std::env::temp_dir().join(format!("cst_cli_obs_json_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = cstuner(&["obs", "dashboard", "--store", dir.to_str().unwrap(), "--json"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "{\"runs\":0,\"summaries\":[]}\n");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scratch directory unique to this test process and `tag`.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cst_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn kb_rank_resolves_its_arch_as_sessions_do() {
    // `kb build` writes into its store, so it runs on a copy of the fixture.
    let store = scratch("kb_rank_arch");
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/obs/warm-fixture");
    for entry in std::fs::read_dir(fixture).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, store.join(path.file_name().unwrap())).unwrap();
    }
    let store = store.to_str().unwrap();
    assert!(cstuner(&["kb", "build", "--store", store]).status.success());
    let rank = |arch: &str| {
        cstuner(&["kb", "rank", "--store", store, "--stencil", "j3d7pt", "--arch", arch])
    };
    let (lower, upper) = (rank("a100"), rank("A100"));
    assert!(lower.status.success());
    let text = String::from_utf8_lossy(&lower.stdout);
    assert!(text.starts_with("kb rank: j3d7pt on A100 — exact mode"), "{text}");
    assert_eq!(lower.stdout, upper.stdout);
    let unknown = rank("h100");
    assert_eq!(unknown.status.code(), Some(2));
    assert_eq!(String::from_utf8_lossy(&unknown.stderr), "unknown arch `h100` (a100|v100|small)\n");
    let _ = std::fs::remove_dir_all(store);
}

#[test]
fn unknown_commands_exit_2_with_usage_on_stderr() {
    let out = cstuner(&["bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command `bogus`"), "{err}");
    assert!(err.contains("usage: cstuner"), "{err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn switches_read_the_same_before_and_after_operands() {
    let dir = scratch("switch_order");
    let run = dir.join("run.jsonl");
    let run = run.to_str().unwrap();
    let out = cstuner(&["tune", "--quick", "--seed", "1", "--journal", run]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for cmd in [&["obs", "profile"][..], &["report"][..]] {
        let first = cstuner(&[cmd, &["--json", run]].concat());
        let last = cstuner(&[cmd, &[run, "--json"]].concat());
        assert!(last.status.success(), "{cmd:?}: {}", String::from_utf8_lossy(&last.stderr));
        assert_eq!(
            first.status.code(),
            Some(0),
            "{cmd:?}: {}",
            String::from_utf8_lossy(&first.stderr)
        );
        assert_eq!(first.stdout, last.stdout, "{cmd:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_report_takes_json_before_the_spec() {
    let dir = scratch("campaign_json_first");
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/campaign_smoke.json");
    let out = cstuner(&["campaign", "report", "--json", spec, "--store", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_finite_intervals_are_rejected_before_connecting() {
    let out = cstuner(&["top", "--addr", "127.0.0.1:1", "--interval", "inf"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--interval"), "{err}");
    assert!(!err.contains("connect"), "{err}");
}

#[test]
fn codegen_reports_an_unwritable_out_path() {
    let out = cstuner(&["codegen", "--quick", "--out", "/nonexistent/dir/k.cu"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot write `/nonexistent/dir/k.cu`"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn malformed_daemon_replies_are_exit_1_errors_not_panics() {
    use std::io::{BufRead, BufReader, Write};
    // A fake daemon: a valid `hello`, then a reply that is not JSON.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        for stream in listener.incoming().take(2) {
            let mut stream = stream.unwrap();
            stream.write_all(b"{\"type\":\"hello\",\"proto\":1}\n").unwrap();
            let mut request = String::new();
            BufReader::new(&stream).read_line(&mut request).unwrap();
            stream.write_all(b"not json\n").unwrap();
        }
    });
    for cmd in [&["client", "status"][..], &["client", "cancel", "--session", "1"][..]] {
        let out = cstuner(&[cmd, &["--addr", &addr]].concat());
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd:?}: {err}");
        assert!(err.contains("unexpected reply: not json"), "{cmd:?}: {err}");
        assert!(!err.contains("panicked"), "{cmd:?}: {err}");
    }
    peer.join().unwrap();
}

#[test]
fn a_reader_that_goes_away_ends_the_run_quietly() {
    // `cstuner ... | head` once `head` has exited: the read end of stdout
    // closes before the child writes its outcome, so every write fails
    // with a broken pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_cstuner"))
        .env_remove("CST_WARM")
        .env_remove("CST_JOURNAL")
        .args(["tune", "--stencil", "j3d7pt", "--quick", "--tuner", "random", "--seed", "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run cstuner");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for cstuner");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert!(out.status.success(), "{:?}: {err}", out.status);
}
