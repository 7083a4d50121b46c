//! One tuning session: the validated request and the shared run path.
//!
//! [`run_session`] is the single implementation behind both `cstuner
//! tune` (in-process) and a daemon worker (behind a socket). Both build
//! the same evaluator from the same [`TuneRequest`] and emit the same
//! journal records in the same order, so a served session's stream and
//! final outcome are bit-identical to the plain CLI run — the serving
//! layer adds transport, never behavior.

use cst_baselines::zoo;
use cst_gpu_sim::{FaultProfile, FaultStats, GpuArch};
use cst_space::Setting;
use cst_stencil::{suite, suite_ext, StencilKernel};
use cst_telemetry::json::MAX_SAFE_INTEGER;
use cst_telemetry::{Field, FieldValue, Telemetry};
use cst_transfer::{warm_seeds, KnowledgeBase, DEFAULT_TOP_K};
use cstuner_core::{journal_outcome, CancelToken, SimEvaluator, TuneError, Tuner, TuningOutcome};
use std::path::Path;

/// The full stencil suite: the paper's Table III kernels plus the
/// extension kernels.
pub fn all_stencils() -> Vec<StencilKernel> {
    let mut v = suite::all_kernels();
    v.extend(suite_ext::extension_kernels());
    v
}

/// Look up a stencil (paper suite or extensions) by name, building only
/// that kernel.
pub fn find_stencil(name: &str) -> Option<StencilKernel> {
    cst_stencil::kernel_by_name(name)
}

/// Look up a GPU architecture by name, case-insensitively, with the
/// error a request, a campaign spec and `kb rank` give for an unknown one.
pub fn find_arch(name: &str) -> Result<GpuArch, String> {
    GpuArch::by_name(name).ok_or_else(|| format!("unknown arch `{name}` (a100|v100|small)"))
}

/// Build a tuner by its canonical flag name (resolved through the
/// [`zoo`] registry); `quick` selects the CLI's reduced-scale csTuner
/// configuration.
pub fn build_tuner(name: &str, quick: bool) -> Option<Box<dyn Tuner>> {
    zoo::build(name, quick)
}

/// A request's fault knob. Absent (`None` at the [`TuneRequest`] level)
/// the session follows the daemon's environment (`CST_FAULT_SEED`),
/// exactly like a plain CLI run in that environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Explicitly fault-free, overriding a hostile environment. Pins
    /// golden stream fixtures under the fault-injection CI leg.
    Off,
    /// The hostile profile seeded here, overriding the environment.
    Hostile {
        /// Fault-decision seed (see [`FaultProfile::Hostile`]).
        seed: u64,
    },
}

impl FaultSpec {
    /// The explicit profile this knob selects.
    pub fn profile(&self) -> FaultProfile {
        match self {
            FaultSpec::Off => FaultProfile::Off,
            FaultSpec::Hostile { seed } => FaultProfile::Hostile { seed: *seed },
        }
    }
}

/// A fully validated tuning request. Construction goes through
/// [`TuneRequest::build`], which applies the CLI's defaulting rules, so
/// a request that parses is always runnable.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneRequest {
    /// Stencil name (validated against the suite).
    pub stencil: String,
    /// GPU architecture name (validated via [`GpuArch::by_name`]).
    pub arch: String,
    /// Canonical tuner flag name (registered in the [`zoo`]).
    pub tuner: String,
    /// Session seed: evaluator rng, tuner rng, fault stream.
    pub seed: u64,
    /// Iso-time budget, virtual seconds.
    pub budget_s: f64,
    /// Reduced-scale run (CLI `--quick`).
    pub quick: bool,
    /// Fault knob; `None` follows the serving process environment.
    pub fault: Option<FaultSpec>,
    /// Warm-start knob: path of a journal-store directory whose
    /// `kb.json` seeds the tuner's starting points (see `cst-transfer`).
    /// `None` — and equally an absent or empty knowledge base — is the
    /// cold path, bit-identical to a run without the knob. Set after
    /// [`TuneRequest::build`] (CLI `--warm`, wire `warm`); never changes
    /// the evaluator, only the first settings the tuner proposes.
    pub warm: Option<String>,
}

impl TuneRequest {
    /// Validate raw request parts into a runnable request, applying the
    /// CLI defaults: stencil `j3d7pt` when `--quick` (required
    /// otherwise), arch `a100`, tuner `cstuner`, seed 0, budget 30
    /// virtual seconds quick / 100 full. A seed above
    /// [`MAX_SAFE_INTEGER`] is refused: the wire and campaign specs
    /// carry it as a JSON number, which holds no larger integer exactly,
    /// so every transport accepts the same seeds and runs each as given.
    pub fn build(
        stencil: Option<&str>,
        arch: Option<&str>,
        tuner: Option<&str>,
        seed: Option<u64>,
        budget_s: Option<f64>,
        quick: bool,
        fault: Option<FaultSpec>,
    ) -> Result<TuneRequest, String> {
        let stencil = match stencil {
            Some(s) => s.to_string(),
            None if quick => "j3d7pt".to_string(),
            None => return Err("--stencil is required; run `cstuner list`".to_string()),
        };
        // A name check: the session builds the kernel when it runs.
        if cst_stencil::kernel_builder(&stencil).is_none() {
            return Err(format!("unknown stencil `{stencil}`; run `cstuner list`"));
        }
        let arch = arch.unwrap_or("a100").to_string();
        find_arch(&arch)?;
        let tuner = tuner.unwrap_or("cstuner").to_string();
        if zoo::find(&tuner).is_none() {
            return Err(zoo::unknown_tuner_message(&tuner));
        }
        let budget_s = budget_s.unwrap_or(if quick { 30.0 } else { 100.0 });
        if !budget_s.is_finite() || budget_s <= 0.0 {
            return Err(format!("budget must be a positive number of seconds, got {budget_s}"));
        }
        let seed = seed.unwrap_or(0);
        if seed > MAX_SAFE_INTEGER {
            return Err(format!(
                "seed must be at most 2^53 - 1 = {MAX_SAFE_INTEGER}, the largest integer a JSON \
                 number carries exactly, got {seed}"
            ));
        }
        Ok(TuneRequest { stencil, arch, tuner, seed, budget_s, quick, fault, warm: None })
    }
}

/// What a finished session yields beyond the journal.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The tuner's outcome (best setting, curve, counters).
    pub outcome: TuningOutcome,
    /// Untuned baseline kernel time on the same simulated GPU, ms.
    pub baseline_ms: f64,
    /// How the warm-start knob resolved; `None` for cold requests.
    pub warm: Option<WarmInfo>,
}

/// How a session's `warm` knob resolved, for operator metrics
/// (`warm_kb_hit`/`warm_kb_miss` on the daemon registry) and `kb rank`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmInfo {
    /// The store directory named by the request.
    pub store: String,
    /// `exact`, `cross-arch`, `observed`, `empty` (no records for the
    /// stencil, or no `kb.json` at all) or `error` (unreadable index —
    /// the session degrades to cold rather than failing).
    pub mode: String,
    /// Surrogate training rows (0 for observed/empty/error).
    pub n_train: usize,
    /// Seeds the tuner kept: 0 when the store offered none, and for the
    /// tuners that take no seeds (csTuner, grid, Garvey, Artemis).
    pub seeds: usize,
}

/// Resolve a warm-start knob against a store's `kb.json` and offer the
/// ranked seeds to the tuner. Absent/empty indexes and load errors all
/// leave the tuner untouched — the cold path stays bit-identical.
fn apply_warm_start(
    store_dir: &str,
    tuner: &mut dyn Tuner,
    stencil: &str,
    arch: &str,
    seed: u64,
) -> WarmInfo {
    let kb = match KnowledgeBase::load(Path::new(store_dir)) {
        Ok(Some(kb)) => kb,
        Ok(None) => {
            return WarmInfo {
                store: store_dir.to_string(),
                mode: "empty".to_string(),
                n_train: 0,
                seeds: 0,
            }
        }
        Err(e) => {
            eprintln!("warning: warm-start disabled: {e}");
            return WarmInfo {
                store: store_dir.to_string(),
                mode: "error".to_string(),
                n_train: 0,
                seeds: 0,
            };
        }
    };
    let w = warm_seeds(&kb, stencil, arch, DEFAULT_TOP_K, seed);
    let seeds = tuner.warm_start(w.seeds);
    WarmInfo { store: store_dir.to_string(), mode: w.mode.to_string(), n_train: w.n_train, seeds }
}

/// The deterministic result summary a `session_done` frame carries —
/// everything `cstuner tune` prints, minus the journal itself.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneInfo {
    /// Tuner display name (e.g. `csTuner`).
    pub tuner: String,
    /// Best measured kernel time, ms.
    pub best_ms: f64,
    /// Untuned baseline kernel time, ms.
    pub baseline_ms: f64,
    /// Best setting, `Display` form.
    pub setting: String,
    /// Unique settings evaluated.
    pub evaluations: u64,
    /// Virtual seconds spent searching.
    pub search_s: f64,
    /// Measurement-path fault counters.
    pub faults: FaultStats,
}

impl DoneInfo {
    /// Summarize a finished session.
    pub fn new(s: &SessionOutcome) -> Self {
        DoneInfo {
            tuner: s.outcome.tuner.to_string(),
            best_ms: s.outcome.best_time_ms,
            baseline_ms: s.baseline_ms,
            setting: s.outcome.best_setting.to_string(),
            evaluations: s.outcome.evaluations,
            search_s: s.outcome.search_s,
            faults: s.outcome.faults,
        }
    }
}

/// Run one tuning session against the simulator, emitting the full
/// journal (`run_meta` → spans/iterations → `outcome` → `counters` →
/// `journal_end`) into `tel`. This is byte-for-byte the `cstuner tune
/// --journal` path: the CLI calls it directly and a daemon worker calls
/// it with a tee sink, so both produce identical streams for identical
/// requests. A [`CancelToken`] (if given) winds the session down at its
/// next budget check, still reporting the best-so-far outcome.
pub fn run_session(
    req: &TuneRequest,
    tel: &Telemetry,
    cancel: Option<CancelToken>,
) -> Result<SessionOutcome, TuneError> {
    let kernel = find_stencil(&req.stencil).expect("TuneRequest::build validated the stencil");
    let arch = GpuArch::by_name(&req.arch).expect("TuneRequest::build validated the arch");
    let mut tuner =
        build_tuner(&req.tuner, req.quick).expect("TuneRequest::build validated the tuner");
    // Seeding happens before any telemetry or evaluator state exists, so
    // it can only change which settings the tuner proposes first.
    let warm = req
        .warm
        .as_deref()
        .map(|dir| apply_warm_start(dir, tuner.as_mut(), kernel.spec.name, arch.name, req.seed));
    tel.meta(&[
        Field::new("stencil", FieldValue::from(kernel.spec.name)),
        Field::new("arch", FieldValue::from(arch.name)),
        Field::new("tuner", FieldValue::from(&req.tuner)),
        Field::new("seed", FieldValue::from(req.seed)),
        Field::new("budget_s", FieldValue::from(req.budget_s)),
    ]);
    let mut eval =
        SimEvaluator::with_budget(kernel.spec.clone(), arch.clone(), req.seed, req.budget_s);
    if let Some(spec) = req.fault {
        eval = eval.with_fault_profile(spec.profile());
    }
    if let Some(token) = cancel {
        eval.set_cancel_token(token);
    }
    // Daemons and campaigns run many sessions per process, often on the
    // same (stencil, arch): put each on the process-wide record cache, the
    // simulator's only memo. It holds no observable state (the journal's
    // memo counters come from the evaluator's serial commit path), so
    // identical requests still produce byte-identical streams — sharing
    // only saves recompute.
    eval.enable_shared_memo();
    eval.set_telemetry(tel);
    let baseline_ms = eval.sim().kernel_time_ms(&Setting::baseline());
    let outcome = tuner.tune_with_telemetry(&mut eval, req.seed, tel)?;
    journal_outcome(tel, &outcome);
    tel.finish(outcome.search_s);
    Ok(SessionOutcome { outcome, baseline_ms, warm })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_req(seed: u64) -> TuneRequest {
        TuneRequest::build(None, None, None, Some(seed), Some(6.0), true, Some(FaultSpec::Off))
            .unwrap()
    }

    #[test]
    fn build_applies_cli_defaults() {
        let r = TuneRequest::build(None, None, None, None, None, true, None).unwrap();
        assert_eq!(r.stencil, "j3d7pt");
        assert_eq!(r.arch, "a100");
        assert_eq!(r.tuner, "cstuner");
        assert_eq!(r.seed, 0);
        assert_eq!(r.budget_s, 30.0);
        let full = TuneRequest::build(Some("cheby"), None, None, None, None, false, None).unwrap();
        assert_eq!(full.budget_s, 100.0);
    }

    #[test]
    fn build_rejects_bad_parts_with_cli_messages() {
        let missing = TuneRequest::build(None, None, None, None, None, false, None).unwrap_err();
        assert!(missing.contains("--stencil is required"), "{missing}");
        let stencil =
            TuneRequest::build(Some("nope"), None, None, None, None, false, None).unwrap_err();
        assert!(stencil.contains("unknown stencil `nope`"), "{stencil}");
        let arch =
            TuneRequest::build(None, Some("h100"), None, None, None, true, None).unwrap_err();
        assert!(arch.contains("unknown arch `h100`"), "{arch}");
        let tuner =
            TuneRequest::build(None, None, Some("ytuner"), None, None, true, None).unwrap_err();
        assert!(tuner.contains("unknown tuner `ytuner`"), "{tuner}");
        let budget =
            TuneRequest::build(None, None, None, None, Some(-1.0), true, None).unwrap_err();
        assert!(budget.contains("positive"), "{budget}");
    }

    #[test]
    fn run_session_streams_the_full_journal_deterministically() {
        let req = quick_req(1);
        let run = || {
            let tel = Telemetry::in_memory();
            let s = run_session(&req, &tel, None).expect("session succeeds");
            (tel.lines().unwrap(), s)
        };
        let (lines_a, s_a) = run();
        let (lines_b, s_b) = run();
        let strip = |ls: &[String]| {
            ls.iter().map(|l| cst_telemetry::strip_wall_fields(l)).collect::<Vec<_>>()
        };
        assert_eq!(strip(&lines_a), strip(&lines_b), "same request, same stream");
        assert_eq!(s_a.outcome.best_time_ms.to_bits(), s_b.outcome.best_time_ms.to_bits());
        assert_eq!(s_a.baseline_ms.to_bits(), s_b.baseline_ms.to_bits());
        cst_telemetry::schema::validate_journal(&lines_a).expect("schema-valid stream");
        assert!(lines_a.iter().any(|l| l.contains("\"type\":\"outcome\"")));
    }

    #[test]
    fn cancelled_session_fails_cleanly_pre_search() {
        let req = quick_req(2);
        let token = CancelToken::new();
        token.cancel();
        let tel = Telemetry::in_memory();
        let out = run_session(&req, &tel, Some(token));
        assert!(out.is_err(), "pre-search cancellation is a clean failure");
    }

    #[test]
    fn done_info_captures_the_outcome_summary() {
        let tel = Telemetry::noop();
        let s = run_session(&quick_req(3), &tel, None).unwrap();
        let d = DoneInfo::new(&s);
        assert_eq!(d.tuner, "csTuner");
        assert_eq!(d.best_ms.to_bits(), s.outcome.best_time_ms.to_bits());
        assert_eq!(d.setting, s.outcome.best_setting.to_string());
        assert!(d.baseline_ms.is_finite() && d.baseline_ms > 0.0);
        assert!(d.best_ms.is_finite() && d.best_ms > 0.0);
    }
}
