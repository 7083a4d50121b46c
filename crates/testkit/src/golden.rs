//! Golden-trace regression fixtures.
//!
//! A golden trace is a deterministic, text-formatted transcript of a
//! `--quick`-scale run: every floating-point value is rendered as its
//! exact bit pattern (hex of `f64::to_bits`), so a fixture diff catches
//! *any* numeric drift, not just drift past a tolerance. Wall-clock
//! quantities (pre-processing `Instant` timings) are excluded by
//! construction — everything in a trace is a pure function of the seeds.
//!
//! Fixtures live in `crates/testkit/fixtures/`. A mismatch panics with
//! both values; rerunning with `CST_BLESS=1` rewrites the fixture after
//! an intentional model or search change.

use cst_gpu_sim::fault::{P_COMPILE, P_LAUNCH, P_OUTLIER, P_TIMEOUT};
use cst_gpu_sim::{FaultProfile, GpuArch};
use cstuner_core::{CsTuner, CsTunerConfig, SimEvaluator, Tuner};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Exact bit pattern of an `f64`, as 16 hex digits.
pub fn hex_bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Options of a [`quick_tune_trace`] run.
#[derive(Debug, Clone, Copy)]
pub struct TraceOptions {
    /// Evaluator/tuner seed.
    pub seed: u64,
    /// Fault profile of the measurement path.
    pub profile: FaultProfile,
    /// Iteration cap (quick scale).
    pub max_iterations: u32,
    /// Performance-dataset size (quick scale).
    pub dataset_size: usize,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions { seed: 1, profile: FaultProfile::Off, max_iterations: 10, dataset_size: 48 }
    }
}

/// Run a quick csTuner session and format its deterministic outputs as a
/// golden trace: the best setting and time, evaluation counts, fault
/// counters and the full convergence curve, every float as exact bits.
/// The fault profile is explicit (never read from the environment), so
/// traces are stable under the fault-injection CI leg too.
pub fn quick_tune_trace(stencil: &str, arch: &GpuArch, opts: &TraceOptions) -> String {
    let spec =
        cst_stencil::spec_by_name(stencil).unwrap_or_else(|| panic!("unknown stencil `{stencil}`"));
    let mut eval =
        SimEvaluator::new(spec, arch.clone(), opts.seed).with_fault_profile(opts.profile);
    let cfg = CsTunerConfig {
        dataset_size: opts.dataset_size,
        max_iterations: opts.max_iterations,
        codegen_cap: 16,
        ..Default::default()
    };
    let out = CsTuner::new(cfg).tune(&mut eval, opts.seed).expect("quick tune failed");
    let mut t = String::new();
    let _ = writeln!(t, "stencil: {stencil}");
    let _ = writeln!(t, "arch: {}", arch.name);
    let _ = writeln!(t, "seed: {}", opts.seed);
    let ([compile, launch, timeout, outlier], fault_seed) = match opts.profile {
        FaultProfile::Off => ([0.0; 4], 0),
        FaultProfile::Hostile { seed } => ([P_COMPILE, P_LAUNCH, P_TIMEOUT, P_OUTLIER], seed),
    };
    let _ = writeln!(
        t,
        "profile: compile={} launch={} timeout={} outlier={} fault_seed={fault_seed}",
        hex_bits(compile),
        hex_bits(launch),
        hex_bits(timeout),
        hex_bits(outlier),
    );
    let _ = writeln!(t, "best_setting: {:?}", out.best_setting.0);
    let _ = writeln!(t, "best_ms: {}", hex_bits(out.best_time_ms));
    let _ = writeln!(t, "evaluations: {}", out.evaluations);
    let _ = writeln!(t, "search_s: {}", hex_bits(out.search_s));
    let f = out.faults;
    let _ = writeln!(
        t,
        "faults: compile={} launch={} timeout={} outliers={} retries={} quarantined={}",
        f.compile_errors, f.launch_failures, f.timeouts, f.outliers, f.retries, f.quarantined,
    );
    for p in &out.curve {
        let _ = writeln!(
            t,
            "curve: it={} elapsed={} best={}",
            p.iteration,
            hex_bits(p.elapsed_s),
            hex_bits(p.best_ms)
        );
    }
    t
}

/// Format the Fig. 12 quantities of a quick run as a golden trace: the
/// per-stage pre-processing costs and their fractions of the search
/// time, every float as exact bits. The pre-processing breakdown is
/// sourced from the virtual cost model (never wall clock), so this
/// fixture pins the fig12 experiment's inputs bit-for-bit.
pub fn preproc_trace(stencil: &str, arch: &GpuArch, opts: &TraceOptions) -> String {
    let spec =
        cst_stencil::spec_by_name(stencil).unwrap_or_else(|| panic!("unknown stencil `{stencil}`"));
    let mut eval =
        SimEvaluator::new(spec, arch.clone(), opts.seed).with_fault_profile(opts.profile);
    let cfg = CsTunerConfig {
        dataset_size: opts.dataset_size,
        max_iterations: opts.max_iterations,
        codegen_cap: 16,
        ..Default::default()
    };
    let out = CsTuner::new(cfg).tune(&mut eval, opts.seed).expect("quick tune failed");
    let search = out.search_s.max(1e-9);
    let p = &out.preproc;
    let mut t = String::new();
    let _ = writeln!(t, "stencil: {stencil}");
    let _ = writeln!(t, "arch: {}", arch.name);
    let _ = writeln!(t, "seed: {}", opts.seed);
    let _ = writeln!(t, "grouping_s: {}", hex_bits(p.grouping_s));
    let _ = writeln!(t, "sampling_s: {}", hex_bits(p.sampling_s));
    let _ = writeln!(t, "codegen_s: {}", hex_bits(p.codegen_s));
    let _ = writeln!(t, "search_s: {}", hex_bits(out.search_s));
    let _ = writeln!(t, "frac_grouping: {}", hex_bits(p.grouping_s / search));
    let _ = writeln!(t, "frac_sampling: {}", hex_bits(p.sampling_s / search));
    let _ = writeln!(t, "frac_codegen: {}", hex_bits(p.codegen_s / search));
    let _ = writeln!(t, "frac_total: {}", hex_bits(p.total_s() / search));
    t
}

/// Run a quick instrumented csTuner session and return its journal with
/// wall-clock fields stripped — the deterministic core the `cst-obs`
/// golden fixtures summarize and diff. The fault profile is explicit
/// (never read from the environment), so the journal is byte-stable
/// under the fault-injection CI leg too.
pub fn quick_tune_journal(stencil: &str, arch: &GpuArch, opts: &TraceOptions) -> Vec<String> {
    let spec =
        cst_stencil::spec_by_name(stencil).unwrap_or_else(|| panic!("unknown stencil `{stencil}`"));
    let tel = cst_telemetry::Telemetry::in_memory();
    let mut eval =
        SimEvaluator::new(spec, arch.clone(), opts.seed).with_fault_profile(opts.profile);
    eval.set_telemetry(&tel);
    let cfg = CsTunerConfig {
        dataset_size: opts.dataset_size,
        max_iterations: opts.max_iterations,
        codegen_cap: 16,
        ..Default::default()
    };
    let out =
        CsTuner::new(cfg).tune_with_telemetry(&mut eval, opts.seed, &tel).expect("quick tune");
    cstuner_core::journal_outcome(&tel, &out);
    tel.finish(out.search_s);
    tel.lines()
        .expect("in-memory sink")
        .iter()
        .map(|l| cst_telemetry::strip_wall_fields(l))
        .collect()
}

/// Run any registered tuner through the shared session path
/// (`cst_serve::run_session`, the exact code behind `cstuner tune` and
/// a served request) at `--quick` scale with faults explicitly off, and
/// return the journal with wall-clock fields stripped. The golden
/// fixtures for the kernel-native tuners (anneal, forest, …) are built
/// on this, so they pin the *production* path end to end, not a
/// test-only reconstruction.
pub fn quick_tuner_journal(
    tuner: &str,
    stencil: &str,
    arch: &str,
    seed: u64,
    budget_s: f64,
) -> Vec<String> {
    let req = cst_serve::TuneRequest::build(
        Some(stencil),
        Some(arch),
        Some(tuner),
        Some(seed),
        Some(budget_s),
        true,
        Some(cst_serve::FaultSpec::Off),
    )
    .expect("valid request");
    let tel = cst_telemetry::Telemetry::in_memory();
    cst_serve::run_session(&req, &tel, None).expect("tuner session failed");
    tel.lines()
        .expect("in-memory sink")
        .iter()
        .map(|l| cst_telemetry::strip_wall_fields(l))
        .collect()
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(format!("{name}.txt"))
}

/// Compare `actual` against the committed fixture `name`. With
/// `CST_BLESS=1` the fixture is (re)written instead and the check
/// passes; otherwise a missing or mismatching fixture panics with
/// instructions.
pub fn check_golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var("CST_BLESS").map(|v| v == "1").unwrap_or(false) {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create fixtures dir");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {} ({e}); run with CST_BLESS=1 to create it", path.display())
    });
    if expected != actual {
        let diff_line = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a)
            .map(|(i, (e, a))| {
                format!("first diff at line {}:\n  expected: {e}\n  actual:   {a}", i + 1)
            })
            .unwrap_or_else(|| "traces differ in length".to_string());
        panic!(
            "golden trace `{name}` diverged from {}.\n{diff_line}\n\
             If the change is intentional, rerun with CST_BLESS=1 to re-bless.",
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_bits_is_exact_and_total() {
        assert_eq!(hex_bits(0.0), "0000000000000000");
        assert_eq!(hex_bits(1.0), "3ff0000000000000");
        assert_eq!(hex_bits(f64::INFINITY), "7ff0000000000000");
        assert_ne!(hex_bits(0.1 + 0.2), hex_bits(0.3), "bit-level, not approximate");
    }

    #[test]
    fn trace_is_deterministic_and_env_independent() {
        let arch = GpuArch::a100();
        let opts = TraceOptions { max_iterations: 4, dataset_size: 32, ..Default::default() };
        let a = quick_tune_trace("j3d7pt", &arch, &opts);
        let b = quick_tune_trace("j3d7pt", &arch, &opts);
        assert_eq!(a, b);
        assert!(a.contains("best_ms:"));
        assert!(a.lines().filter(|l| l.starts_with("curve:")).count() >= 1);
    }
}
