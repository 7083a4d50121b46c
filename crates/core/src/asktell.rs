//! The ask/tell search kernel.
//!
//! Every search strategy of the zoo — the island GA, the Garvey and
//! Artemis baselines, random and grid search, simulated annealing, the
//! forest surrogate — reduces to the same minimal conversation: the
//! optimizer *asks* for a batch of candidate [`Setting`]s, the kernel
//! measures them, and the optimizer is *told* the costs. [`Optimizer`]
//! is that conversation and nothing else: `init`, `ask`, `tell`,
//! `mid_generation` and `warm_start`. [`drive`] is the one driver loop
//! that owns everything around it: iteration accounting and the
//! convergence curve ([`Recorder`]), budget/cancellation checks, the one
//! stopping rule, the `search` telemetry span, and fault accounting
//! (which rides along inside the evaluator). [`KernelTuner`] is the one
//! [`Tuner`] every strategy runs behind; the tuner's name and its
//! iteration cap are the kernel's only inputs besides the optimizer, and
//! the name comes from the zoo's registry.
//!
//! # Stopping rule
//!
//! A run ends on an empty ask, the budget, the iteration cap, or
//! [`STALL_LIMIT`] consecutive stalls, whatever the strategy. A stall is
//! a told setting that was already measured: it charges no time and
//! advances no iteration, so a strategy that only repeats itself (the
//! GA or random search in a space they have used up) ends only there.
//!
//! # Determinism contract
//!
//! The kernel is bit-deterministic: for a fixed (stencil, arch, seed,
//! budget, fault profile), two runs produce byte-identical journals
//! modulo wall-clock fields. To keep that property, optimizers must
//! follow three rules:
//!
//! 1. **Own your randomness.** Derive any internal rng from the `seed`
//!    passed to [`Optimizer::init`]; draws from the evaluator
//!    ([`SearchCtx::random_valid`]) are part of the observable stream
//!    and must happen in a deterministic order.
//! 2. **One tell per ask.** Each `tell` carries exactly the last ask's
//!    settings, whole and in ask order, before the next `ask`; each
//!    [`Observation::setting`] is the setting as asked. An optimizer
//!    reads what it asked from the observations and keeps no record of
//!    its pending ask.
//! 3. **Skips are explicit and trail.** Once the budget expires
//!    mid-batch the remaining settings are told with
//!    [`Observation::time_ms`]` = None` (never measured, nothing
//!    charged), so skips only ever end a batch. Generational optimizers
//!    that must balance their ledger (the GA) report
//!    [`Optimizer::mid_generation`] so the kernel keeps feeding all-skip
//!    rounds until the generation closes — preserving the legacy
//!    journal event sequence bit for bit.

use cst_ga::POPULATION;
use cst_space::Setting;
use cst_stencil::StencilSpec;
use cst_telemetry::{event, Telemetry};

use crate::dataset::PerfDataset;
use crate::evaluator::Evaluator;
use crate::pipeline::{CurvePoint, PreprocBreakdown, TuneError, Tuner, TuningOutcome};

/// One measured (or skipped) candidate reported back to the optimizer.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// The setting as asked.
    pub setting: Setting,
    /// Measured kernel time in ms, or `None` when the budget expired
    /// before this setting was reached (it was never measured and
    /// charged nothing).
    pub time_ms: Option<f64>,
}

/// The slice of the evaluator an optimizer may see while proposing.
///
/// Proposal-time access is deliberately narrow: the space, the stencil,
/// validity, the evaluator's seeded `random_valid` stream, and the
/// uncharged offline dataset. Measurement, the clock, and budget state
/// stay owned by the driver so every strategy pays for candidates the
/// same way.
pub struct SearchCtx<'a> {
    eval: &'a mut dyn Evaluator,
}

impl<'a> SearchCtx<'a> {
    /// Wrap an evaluator for an optimizer call.
    pub fn new(eval: &'a mut dyn Evaluator) -> Self {
        SearchCtx { eval }
    }

    /// The stencil under tuning.
    pub fn spec(&self) -> &StencilSpec {
        self.eval.spec()
    }

    /// The explicit parameter space.
    pub fn space(&self) -> &cst_space::OptSpace {
        self.eval.space()
    }

    /// Full validity (explicit constraints + resources).
    pub fn is_valid(&self, s: &Setting) -> bool {
        self.eval.is_valid(s)
    }

    /// Draw a uniformly random valid setting from the evaluator's seeded
    /// stream. Draw order is observable — see the determinism contract.
    pub fn random_valid(&mut self) -> Setting {
        self.eval.random_valid()
    }

    /// Profile `n` distinct valid settings offline
    /// ([`PerfDataset::collect`]). Offline profiling is not charged to the
    /// tuning clock, exactly as csTuner's own dataset stage.
    pub fn dataset(&mut self, n: usize, seed: u64) -> PerfDataset {
        PerfDataset::collect(self.eval, n, seed)
    }
}

/// A search strategy under the kernel: propose candidates, learn from
/// costs. See the module docs for the determinism contract.
pub trait Optimizer {
    /// One-time setup before the first `ask`. The default does nothing.
    fn init(&mut self, _ctx: &mut SearchCtx<'_>, _seed: u64, _tel: &Telemetry) {}

    /// Propose the next batch of candidates. Returning an empty batch
    /// means the strategy is exhausted and ends the run.
    fn ask(&mut self, ctx: &mut SearchCtx<'_>) -> Vec<Setting>;

    /// Ingest the costs of the last asked batch: one observation per
    /// asked setting, in ask order, skips trailing (rules 2 and 3 of the
    /// determinism contract).
    fn tell(&mut self, obs: &[Observation]);

    /// True while the optimizer's internal ledger is mid-cycle and must
    /// keep receiving (possibly all-skip) batches even after the budget
    /// expires. The GA uses this to close its generation exactly as the
    /// legacy closed-loop driver did.
    fn mid_generation(&self) -> bool {
        false
    }

    /// Offer warm-start seeds (surrogate-ranked settings from the
    /// transfer knowledge base) before [`Optimizer::init`], returning how
    /// many the strategy keeps. Strategies that support seeding fold them
    /// into their starting points; the default ignores them and keeps 0.
    /// A [`KernelTuner`] run without seeds never calls this, so it takes
    /// exactly the cold code path (see the determinism contract:
    /// warm-start changes starting points, never the evaluator or the
    /// measurement stream).
    fn warm_start(&mut self, _seeds: &[Setting]) -> usize {
        0
    }
}

/// Consecutive stalls after which [`drive`] ends any run (this tree's
/// value; see the module's stopping rule). Without it a strategy that
/// proposes only seen settings would spin forever inside an iso-time
/// budget. Fresh draws and seen-filters keep new settings coming, so it
/// fires only once the space a strategy reaches is used up.
pub const STALL_LIMIT: u64 = 10_000;

/// Run an optimizer to completion under one evaluator: the single search
/// loop shared by every tuner in the zoo.
///
/// Per round: check the budget and `max_iterations` (honoring
/// [`Optimizer::mid_generation`]), `ask`, measure each setting in ask
/// order through the [`Recorder`] (settings past expiry are skipped, not
/// measured), then `tell` the whole batch once. Ends by the module's
/// stopping rule; always finalizes into the standard [`TuningOutcome`],
/// named `name`, with curve, fault stats, and a `search` telemetry span.
pub fn drive(
    opt: &mut dyn Optimizer,
    eval: &mut dyn Evaluator,
    name: &'static str,
    max_iterations: u32,
    seed: u64,
    tel: &Telemetry,
) -> Result<TuningOutcome, TuneError> {
    let mut rec = Recorder::new(max_iterations).with_telemetry(tel);
    let span = tel.span("search", eval.clock().now_s());
    opt.init(&mut SearchCtx::new(eval), seed, tel);
    let mut stalled: u64 = 0;
    loop {
        if stalled >= STALL_LIMIT {
            break;
        }
        if rec.done(eval) && !opt.mid_generation() {
            break;
        }
        let batch = opt.ask(&mut SearchCtx::new(eval));
        if batch.is_empty() {
            break;
        }
        let mut obs = Vec::with_capacity(batch.len());
        for s in batch {
            if rec.done(eval) {
                obs.push(Observation { setting: s, time_ms: None });
            } else {
                let before = eval.unique_evaluations();
                let t = rec.measure(eval, s);
                if eval.unique_evaluations() > before {
                    stalled = 0;
                } else {
                    stalled += 1;
                }
                obs.push(Observation { setting: s, time_ms: Some(t) });
            }
        }
        opt.tell(&obs);
    }
    let out = rec.finish(name, eval);
    span.end(eval.clock().now_s());
    out
}

/// Builds a fresh optimizer; a [`KernelTuner`] calls it once per run.
pub type MakeOptimizer = fn() -> Box<dyn Optimizer>;

/// The [`Tuner`] every ask/tell strategy runs behind: a fresh optimizer
/// from `make` per tuning run (a tuner value may be reused, and no
/// optimizer state may leak from one run into the next), handed the
/// warm-start seeds, then [`drive`]n under its name and iteration cap.
#[derive(Debug, Clone)]
pub struct KernelTuner {
    name: &'static str,
    make: MakeOptimizer,
    /// Iteration cap of every run (`u32::MAX`, budget-bound only, unless
    /// set).
    pub max_iterations: u32,
    warm: Vec<Setting>,
}

impl KernelTuner {
    /// A tuner named `name` ([`TuningOutcome::tuner`], the zoo entry's
    /// display name) over the optimizers `make` builds.
    pub fn new(name: &'static str, make: MakeOptimizer) -> Self {
        KernelTuner { name, make, max_iterations: u32::MAX, warm: Vec::new() }
    }
}

impl Tuner for KernelTuner {
    fn warm_start(&mut self, seeds: Vec<Setting>) -> usize {
        // Optimizers are built per run; a throwaway one says whether this
        // strategy takes seeds at all.
        let kept = (self.make)().warm_start(&seeds);
        self.warm = if kept > 0 { seeds } else { Vec::new() };
        kept
    }

    fn tune_with_telemetry(
        &mut self,
        eval: &mut dyn Evaluator,
        seed: u64,
        tel: &Telemetry,
    ) -> Result<TuningOutcome, TuneError> {
        let mut opt = (self.make)();
        if !self.warm.is_empty() {
            opt.warm_start(&self.warm);
        }
        drive(opt.as_mut(), eval, self.name, self.max_iterations, seed, tel)
    }
}

/// Batches evaluations into iterations of one population
/// ([`cst_ga::POPULATION`]) and records the best-so-far curve, matching
/// the accounting of csTuner's search stage ("the number of parameter
/// settings evaluated during one iteration is set to the population
/// size", §V-A2).
#[derive(Debug, Clone)]
pub struct Recorder {
    in_iter: usize,
    iteration: u32,
    best_ms: f64,
    best_setting: Option<Setting>,
    curve: Vec<CurvePoint>,
    max_iterations: u32,
    tel: Telemetry,
    samples: Vec<(Setting, f64)>,
    sample_stride: u64,
    fresh_finite: u64,
}

/// Cap on the (setting, time) training pairs journaled per run. The log
/// thins itself by stride doubling — keep every `stride`-th fresh finite
/// evaluation, compacting to every other retained sample when full — so
/// it stays a bounded, deterministic systematic sample of the whole run.
const SAMPLE_CAP: usize = 48;

impl Recorder {
    /// New recorder with the iteration cap.
    pub fn new(max_iterations: u32) -> Self {
        Recorder {
            in_iter: 0,
            iteration: 0,
            best_ms: f64::INFINITY,
            best_setting: None,
            curve: Vec::new(),
            max_iterations,
            tel: Telemetry::noop(),
            samples: Vec::new(),
            sample_stride: 1,
            fresh_finite: 0,
        }
    }

    /// Attach a telemetry handle: every curve point this recorder pushes
    /// is mirrored as an `iteration` journal event, so baseline journals
    /// line up with csTuner's convergence records.
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.tel = tel.clone();
        self
    }

    /// Evaluate a setting through the evaluator, update the incumbent, and
    /// advance iteration accounting. Returns the measured time.
    pub fn measure(&mut self, eval: &mut dyn Evaluator, s: Setting) -> f64 {
        let before = eval.unique_evaluations();
        let t = eval.evaluate(&s);
        if t < self.best_ms {
            self.best_ms = t;
            self.best_setting = Some(s);
        }
        // Memoized repeats are free on real hardware too; only fresh
        // evaluations advance the iteration counter.
        if eval.unique_evaluations() > before {
            self.in_iter += 1;
            if t.is_finite() {
                if self.fresh_finite.is_multiple_of(self.sample_stride) {
                    self.samples.push((s, t));
                    if self.samples.len() >= SAMPLE_CAP {
                        let kept: Vec<(Setting, f64)> =
                            self.samples.iter().step_by(2).copied().collect();
                        self.samples = kept;
                        self.sample_stride *= 2;
                    }
                }
                self.fresh_finite += 1;
            }
        }
        if self.in_iter >= POPULATION {
            self.close_iteration(eval);
        }
        t
    }

    /// Close the current iteration now, however few fresh evaluations it
    /// holds: record a curve point and journal an `iteration` event.
    /// csTuner closes one iteration per GA generation this way (§V-A2).
    pub(crate) fn close_iteration(&mut self, eval: &dyn Evaluator) {
        self.in_iter = 0;
        self.iteration += 1;
        self.curve.push(CurvePoint {
            iteration: self.iteration,
            elapsed_s: eval.clock().now_s(),
            best_ms: self.best_ms,
        });
        event!(
            self.tel,
            "iteration",
            iteration = self.iteration,
            v_s = eval.clock().now_s(),
            best_ms = self.best_ms,
            evals = eval.unique_evaluations(),
        );
    }

    /// Close a trailing partial iteration, or the first one if none
    /// closed, so short runs still have a curve. Journals no samples:
    /// that is [`Recorder::finish`]'s job.
    pub(crate) fn flush(&mut self, eval: &dyn Evaluator) {
        if self.in_iter > 0 || self.curve.is_empty() {
            self.close_iteration(eval);
        }
    }

    /// Whether the tuner should stop (budget or iteration cap).
    pub fn done(&self, eval: &dyn Evaluator) -> bool {
        eval.expired() || self.iteration >= self.max_iterations
    }

    /// Current best time.
    pub fn best_ms(&self) -> f64 {
        self.best_ms
    }

    /// Iterations closed so far.
    pub(crate) fn iterations(&self) -> u32 {
        self.iteration
    }

    /// The best-so-far curve, one point per closed iteration.
    pub(crate) fn into_curve(self) -> Vec<CurvePoint> {
        self.curve
    }

    /// Current best setting, if any finite evaluation happened.
    pub fn best_setting(&self) -> Option<Setting> {
        self.best_setting
    }

    /// The retained (setting, time) training pairs, in evaluation order,
    /// with the incumbent best guaranteed present.
    pub fn samples(&self) -> Vec<(Setting, f64)> {
        let mut out = self.samples.clone();
        if let Some(best) = self.best_setting {
            if self.best_ms.is_finite() && !out.iter().any(|(s, _)| *s == best) {
                out.push((best, self.best_ms));
            }
        }
        out
    }

    /// Finalize into a [`TuningOutcome`].
    pub fn finish(
        mut self,
        name: &'static str,
        eval: &dyn Evaluator,
    ) -> Result<TuningOutcome, TuneError> {
        self.flush(eval);
        let best_setting = self.best_setting.ok_or(TuneError::BudgetTooSmall)?;
        if !self.best_ms.is_finite() {
            return Err(TuneError::EmptySpace);
        }
        // Journal the retained training pairs so archived runs carry the
        // (setting, time) records the transfer knowledge base learns from.
        if self.tel.enabled() {
            for (s, t) in self.samples() {
                let label = s.to_string();
                event!(self.tel, "sample", setting = &label, time_ms = t);
            }
        }
        Ok(TuningOutcome {
            tuner: name,
            best_setting,
            best_time_ms: self.best_ms,
            curve: self.curve,
            evaluations: eval.unique_evaluations(),
            search_s: eval.clock().now_s(),
            preproc: PreprocBreakdown::default(),
            faults: eval.fault_stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::SimEvaluator;
    use cst_gpu_sim::GpuArch;
    use cst_stencil::suite;

    #[test]
    fn recorder_batches_iterations() {
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 1);
        let mut r = Recorder::new(100);
        for _ in 0..2 * POPULATION + 1 {
            let s = e.random_valid();
            r.measure(&mut e, s);
        }
        let out = r.finish("test", &e).unwrap();
        // 65 fresh evals at a population of 32 → 2 full iterations + 1
        // flush.
        assert_eq!(out.evaluations, 65);
        assert_eq!(out.curve.len(), 3);
        assert_eq!(out.curve.last().unwrap().iteration, 3);
    }

    #[test]
    fn recorder_respects_iteration_cap() {
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 2);
        let mut r = Recorder::new(3);
        let mut n = 0;
        while !r.done(&e) && n < 1000 {
            let s = e.random_valid();
            r.measure(&mut e, s);
            n += 1;
        }
        assert_eq!(n, 96, "3 iterations × a population of 32");
    }

    /// A strategy that proposes one fixed setting forever: the stall
    /// backstop (not the clock, which never advances on memoized
    /// repeats) must end the run.
    struct OneTrickPony {
        s: Option<Setting>,
        asks: u64,
    }

    impl Optimizer for OneTrickPony {
        fn ask(&mut self, ctx: &mut SearchCtx<'_>) -> Vec<Setting> {
            self.asks += 1;
            let s = *self.s.get_or_insert_with(|| ctx.random_valid());
            vec![s]
        }
        fn tell(&mut self, _obs: &[Observation]) {}
    }

    #[test]
    fn drive_stall_backstop_terminates_degenerate_strategy() {
        let mut e = SimEvaluator::with_budget(
            suite::spec_by_name("j3d7pt").unwrap(),
            GpuArch::a100(),
            3,
            1e9,
        );
        let mut opt = OneTrickPony { s: None, asks: 0 };
        let out = drive(&mut opt, &mut e, "pony", u32::MAX, 3, &Telemetry::noop()).unwrap();
        assert_eq!(out.evaluations, 1, "one fresh evaluation, then memoized spins");
        assert_eq!(opt.asks, 1 + STALL_LIMIT, "the fresh ask, then STALL_LIMIT stalls");
        assert!(out.best_time_ms.is_finite());
    }

    /// An empty first ask ends the run before anything is measured —
    /// the recorder reports the budget as too small.
    struct Mute;

    impl Optimizer for Mute {
        fn ask(&mut self, _ctx: &mut SearchCtx<'_>) -> Vec<Setting> {
            Vec::new()
        }
        fn tell(&mut self, _obs: &[Observation]) {}
    }

    #[test]
    fn recorder_sample_log_is_bounded_and_keeps_the_best() {
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 5);
        let mut r = Recorder::new(1000);
        for _ in 0..500 {
            let s = e.random_valid();
            r.measure(&mut e, s);
        }
        let samples = r.samples();
        assert!(!samples.is_empty() && samples.len() <= SAMPLE_CAP);
        let best = r.best_setting().unwrap();
        assert!(samples.iter().any(|(s, t)| *s == best && *t == r.best_ms()));
        assert!(samples.iter().all(|(_, t)| t.is_finite()));
    }

    #[test]
    fn recorder_sample_log_is_deterministic() {
        let run = || {
            let mut e =
                SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 6);
            let mut r = Recorder::new(1000);
            for _ in 0..200 {
                let s = e.random_valid();
                r.measure(&mut e, s);
            }
            r.samples()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits()));
    }

    #[test]
    fn drive_empty_ask_is_budget_too_small() {
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 0);
        let err = drive(&mut Mute, &mut e, "mute", u32::MAX, 0, &Telemetry::noop());
        assert!(matches!(err, Err(TuneError::BudgetTooSmall)));
    }
}
