//! cstbench: the end-to-end benchmark of the csTuner reproduction.
//!
//! ```text
//! cstbench --workload W --seed N [--seconds S] [--trace 0|1] [--trace-out FILE]
//! ```
//!
//! Runs one workload for `S` seconds (finishing the round in progress)
//! and prints one `name value unit` line per metric, then the metrics as
//! one JSON object on the last line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` replays the same inputs with every layer timed
//! from outside the library and reports the per-layer metrics. Exit 1
//! when any session failed or produced a wrong result, 2 on bad usage.
//! See README.md for the workloads and what each metric means.

mod common;
mod gen;
mod inproc;
mod served;
mod speed;
mod stats;
mod trace;

use common::{outcome_digest, Collected, Ctx, TempDir};
use stats::{beyond, geomean, median, percentile, sorted, tail_supported};
use std::path::PathBuf;

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["cstuner-full", "zoo-quick", "serve-fleet", "warm-archive"];

/// End-to-end metrics: name, unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sessions_per_s", "1/s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p90", "ms"),
    ("tuned_speedup_geomean", "x"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name, unit. Every traced run reports all of them;
/// a layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("core.dataset.ms", "ms"),
    ("core.dataset.records", "count"),
    ("core.grouping.ms", "ms"),
    ("core.metric_comb.ms", "ms"),
    ("core.sampling.ms", "ms"),
    ("core.sampling.scored", "count"),
    ("core.sampling.share", "fraction"),
    ("codegen.ms", "ms"),
    ("codegen.bytes", "B"),
    ("codegen.kernels", "count"),
    ("core.search.ms", "ms"),
    ("core.search.iterations", "count"),
    ("core.stage_coverage", "fraction"),
    ("evaluator.calls", "count"),
    ("evaluator.ms", "ms"),
    ("evaluator.unique", "count"),
    ("evaluator.hit_ratio", "fraction"),
    ("evaluator.share", "fraction"),
    ("tuner.garvey.ms", "ms"),
    ("tuner.garvey.self_ms", "ms"),
    ("tuner.opentuner.ms", "ms"),
    ("tuner.opentuner.self_ms", "ms"),
    ("tuner.artemis.ms", "ms"),
    ("tuner.artemis.self_ms", "ms"),
    ("tuner.random.ms", "ms"),
    ("tuner.random.self_ms", "ms"),
    ("tuner.grid.ms", "ms"),
    ("tuner.grid.self_ms", "ms"),
    ("tuner.anneal.ms", "ms"),
    ("tuner.anneal.self_ms", "ms"),
    ("tuner.forest.ms", "ms"),
    ("tuner.forest.self_ms", "ms"),
    ("telemetry.journal_ms", "ms"),
    ("telemetry.records", "count"),
    ("telemetry.bytes", "B"),
    ("serve.connect_ms_p50", "ms"),
    ("serve.admit_ms_p50", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.stream_ms_p50", "ms"),
    ("serve.first_record_ms_p50", "ms"),
    ("serve.first_record_ms_p90", "ms"),
    ("serve.frames_per_session", "count"),
    ("serve.bytes_per_session", "B"),
    ("serve.watch_replay_ms_p50", "ms"),
    ("serve.metrics_poll_ms_p50", "ms"),
    ("serve.admission_busy", "count"),
    ("serve.warm_kb_hit", "count"),
    ("serve.warm_kb_miss", "count"),
    ("gpu_sim.memo.hit_ratio", "fraction"),
    ("gpu_sim.memo.entries", "count"),
    ("transfer.kb_load_ms", "ms"),
    ("transfer.kb_bytes", "B"),
    ("telemetry.json_parse_mb_per_s", "MB/s"),
    ("transfer.warm_seeds_ms", "ms"),
    ("transfer.n_train", "count"),
    ("transfer.kb_build_ms", "ms"),
    ("obs.store_runs", "count"),
    ("trace.sessions", "count"),
    ("trace.overhead_ms", "ms"),
];

const USAGE: &str = "usage: cstbench --workload cstuner-full|zoo-quick|serve-fleet|warm-archive \
                     --seed N [--seconds S] [--trace 0|1] [--trace-out FILE]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, trace_out: None };
    let mut seed = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value.clone(),
            "--workload" => return Err(bad("one of the four workloads")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

/// The tail percentile every workload reports.
const TAIL: u32 = 90;

/// Whether a workload's latencies are CPU-bound, and so reported
/// rescaled by the machine-speed probe (see `speed`). serve-fleet's are
/// not: most of a served quick session is the daemon's accept-loop wait,
/// which does not stretch with the machine, and rescaling it adds noise.
fn rescaled(workload: &str) -> bool {
    workload != "serve-fleet"
}

/// End-to-end metrics of an untraced run. With `rescale`, each session's
/// latency is divided by the machine slowdown around it, throughput is
/// multiplied by the time-weighted mean slowdown, and set-up by the run's.
fn end_to_end(c: &Collected, rescale: bool) -> Vec<(&'static str, f64)> {
    let slow = |at| if rescale { c.speed.slowdown_at(at) } else { 1.0 };
    let raw: f64 = c.samples.iter().map(|s| s.ms).sum();
    let scaled: Vec<f64> = c.samples.iter().map(|s| s.ms / slow(s.at)).collect();
    let mean_slowdown = raw / scaled.iter().sum::<f64>();
    let ms = sorted(&scaled);
    let speedups: Vec<f64> =
        c.samples.iter().map(|s| s.outcome.baseline_ms / s.outcome.best_ms).collect();
    let run_slowdown = if rescale { c.speed.slowdown() } else { 1.0 };
    vec![
        ("sessions_per_s", c.samples.len() as f64 / c.measured_s * mean_slowdown),
        ("session_ms_p50", percentile(&ms, 50)),
        ("session_ms_p90", percentile(&ms, TAIL)),
        ("tuned_speedup_geomean", geomean(&speedups)),
        ("peak_rss_mb", c.peak_rss_kb as f64 / 1024.0),
        ("setup_s", median(&c.setup_s) / run_slowdown),
    ]
}

/// Per-layer metrics of a traced run, in table order.
fn per_layer(c: &Collected) -> Vec<(&'static str, f64)> {
    for name in c.layers.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "layer metric {name} is not in the table"
        );
    }
    PER_LAYER.iter().map(|(name, _)| (*name, c.layers.get(name).copied().unwrap_or(0.0))).collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(&PER_LAYER).find(|(n, _)| *n == name).expect("known metric").1
}

/// The result object the last output line carries.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{}\"}}", unit_of(name))
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let tmp = TempDir::new()?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tmp: tmp.path().to_path_buf(),
        cstuner: exe.with_file_name("cstuner"),
    };
    let c = collect(&args.workload, &ctx)?;
    if c.samples.is_empty() {
        return Err("no session completed".to_string());
    }
    let n = c.samples.len();
    println!(
        "workload {} seed {} trace {}: {n} sessions in {:.3} s of measurement",
        args.workload, args.seed, args.trace as u8, c.measured_s
    );
    println!("outcome_digest {:016x}", outcome_digest(&c.samples));
    let rescale = rescaled(&args.workload);
    let metrics = if args.trace { per_layer(&c) } else { end_to_end(&c, rescale) };
    if !args.trace && rescale {
        println!(
            "machine slowdown {} (median of {} probes); wall-clock values:",
            c.speed.slowdown(),
            c.speed.samples()
        );
        for (name, v) in end_to_end(&c, false) {
            if name != "tuned_speedup_geomean" && name != "peak_rss_mb" {
                println!("  {name} {v} {}", unit_of(name));
            }
        }
    }
    if !args.trace && !tail_supported(n, TAIL) {
        println!("warning: p{TAIL} has {} samples beyond it (< 10)", beyond(n, TAIL));
    }
    for (name, v) in &metrics {
        println!("{name} {v} {}", unit_of(name));
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, trace::to_jsonl(&c.spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let failed = c.failures.len() as u64;
    let correct = failed == 0;
    println!("{}", result_json(correct, c.attempted.max(failed), failed, &metrics));
    Ok(correct)
}

fn collect(workload: &str, ctx: &Ctx) -> Result<Collected, String> {
    match workload {
        "cstuner-full" => inproc::run(inproc::Kind::CsTunerFull, ctx),
        "zoo-quick" => inproc::run(inproc::Kind::ZooQuick, ctx),
        "serve-fleet" => served::serve_fleet(ctx),
        "warm-archive" => served::warm_archive(ctx),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("cstbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("cstbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv("--workload zoo-quick --seed 3 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("zoo-quick", 3, 2.5, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload zoo-quick")).is_err());
        assert!(parse_args(&argv("--workload zoo-quick --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload zoo-quick --seed 1 --bogus 1")).is_err());
        assert!(parse_args(&argv("--workload zoo-quick --seed")).is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(n), "{n} twice");
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }

    /// The root package's `cstuner`, built into the repository's own
    /// target directory (a no-op when it is up to date).
    fn cstuner_binary() -> PathBuf {
        static BIN: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
        BIN.get_or_init(|| {
            let root =
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repo root");
            let target = root.join("target");
            let status = std::process::Command::new(env!("CARGO"))
                .args(["build", "--release", "--offline", "--quiet", "--bin", "cstuner"])
                .arg("--manifest-path")
                .arg(root.join("Cargo.toml"))
                .env("CARGO_TARGET_DIR", &target)
                .status()
                .expect("run cargo");
            assert!(status.success(), "building cstuner failed");
            target.join("release").join("cstuner")
        })
        .clone()
    }

    /// One round of `workload`, plain then traced: no failures, every
    /// metric present and finite, and the traced run replays the plain
    /// run's inputs to the same outcomes.
    fn smoke(workload: &str) {
        let mut digests = Vec::new();
        for trace in [false, true] {
            let tmp = TempDir::new().unwrap();
            let ctx = Ctx {
                seed: 11,
                seconds: 0.0,
                trace,
                tmp: tmp.path().to_path_buf(),
                cstuner: cstuner_binary(),
            };
            let c = collect(workload, &ctx).unwrap();
            assert!(c.failures.is_empty(), "{workload} trace={trace}: {:?}", c.failures);
            assert_eq!(c.attempted as usize, c.samples.len());
            digests.push(outcome_digest(&c.samples));
            let metrics = if trace { per_layer(&c) } else { end_to_end(&c, true) };
            assert_eq!(metrics.len(), if trace { PER_LAYER.len() } else { END_TO_END.len() });
            cst_telemetry::json::parse(&result_json(true, c.attempted, 0, &metrics)).unwrap();
            if trace {
                assert!(c.layers["trace.sessions"] > 0.0, "{workload}: no traced session");
                assert!(!c.spans.is_empty());
            } else {
                assert!(metrics.iter().all(|(_, v)| *v > 0.0), "{workload}: {metrics:?}");
            }
        }
        assert_eq!(digests[0], digests[1], "{workload}: the trace replays the same inputs");
    }

    #[test]
    fn smoke_cstuner_full() {
        smoke("cstuner-full");
    }

    #[test]
    fn smoke_zoo_quick() {
        smoke("zoo-quick");
    }

    #[test]
    fn smoke_serve_fleet() {
        smoke("serve-fleet");
    }

    #[test]
    fn smoke_warm_archive() {
        smoke("warm-archive");
    }

    #[test]
    fn result_line_is_json() {
        let line = result_json(true, 3, 0, &[("session_ms_p50", 1.25), ("setup_s", 0.5)]);
        let v = cst_telemetry::json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(3));
        let m = v.get("metrics").and_then(|m| m.get("session_ms_p50")).unwrap();
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("ms"));
    }
}
