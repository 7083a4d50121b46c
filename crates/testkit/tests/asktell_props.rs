//! Property suite for the ask/tell optimizer contract.
//!
//! Every tuner in the zoo must honor the kernel's contract
//! (`crates/core/src/asktell.rs`): asked settings are valid when the
//! strategy claims validity, the iso-time budget is never exceeded by
//! more than one in-flight evaluation, `tell` chunking never changes the
//! outcome, and two same-seed runs are byte-identical end to end. Every
//! entry but csTuner, which keeps its own search loop, exposes its
//! optimizer to the raw `ask`/`tell` probes.

use cst_baselines::zoo;
use cst_gpu_sim::GpuArch;
use cst_space::Setting;
use cst_stencil::suite;
use cst_telemetry::Telemetry;
use cst_testkit::{outcomes_bit_equal, quick_tuner_journal, PropRunner};
use cstuner_core::{
    drive, Evaluator, KernelConfig, Observation, Optimizer, SearchCtx, SimEvaluator, Tuner,
};

fn sim(seed: u64, budget_s: f64) -> SimEvaluator {
    SimEvaluator::with_budget(
        suite::spec_by_name("j3d7pt").unwrap(),
        GpuArch::a100(),
        seed,
        budget_s,
    )
}

/// Probe each kernel strategy's raw `ask`/`tell` conversation:
/// every asked setting must satisfy full (stencil, arch) validity when
/// the strategy claims `asks_valid_only`, across proptest-drawn seeds.
#[test]
fn asked_settings_are_valid_when_claimed() {
    PropRunner::new("asked-settings-valid").cases(16).run(&(0u64..1 << 16), |seed| {
        for entry in zoo::tuners() {
            let Some(mut opt) = entry.optimizer() else { continue };
            let mut e = sim(seed, 1e9);
            opt.init(&mut SearchCtx::new(&mut e), seed, &Telemetry::noop());
            let mut told = 0usize;
            for _round in 0..6 {
                let batch = opt.ask(&mut SearchCtx::new(&mut e));
                if batch.is_empty() {
                    break;
                }
                let mut obs = Vec::with_capacity(batch.len());
                for &s in &batch {
                    if opt.asks_valid_only() && !e.is_valid(&s) {
                        return Err(format!("{}: asked invalid setting {s:?}", entry.flag));
                    }
                    let t = e.evaluate(&s);
                    obs.push(Observation { setting: s, time_ms: Some(t) });
                }
                told += obs.len();
                opt.tell(&obs);
            }
            if told == 0 {
                return Err(format!("{}: asked nothing at all", entry.flag));
            }
        }
        Ok(())
    });
}

/// The iso-time budget is a hard cap for every registered tuner: one
/// in-flight evaluation may overshoot (real hardware cannot un-run a
/// kernel), a whole extra generation must not.
#[test]
fn no_registered_tuner_exceeds_its_budget() {
    for entry in zoo::tuners() {
        let budget = 12.0;
        let mut e = sim(3, budget);
        let mut tuner = entry.build(true);
        let out = tuner.tune(&mut e, 3).unwrap_or_else(|err| panic!("{}: {err:?}", entry.flag));
        assert!(
            out.search_s < budget + 10.0,
            "{}: search ran {}s against a {budget}s budget",
            entry.flag,
            out.search_s,
        );
        assert!(out.best_time_ms.is_finite(), "{}", entry.flag);
    }
}

/// Forwarding wrapper that splits every `tell` into small chunks — the
/// kernel promises optimizers tolerate exactly this (chunking-insensitive
/// ingestion, rule 2 of the determinism contract).
struct ChunkedTell {
    inner: Box<dyn Optimizer>,
    chunk: usize,
}

impl Optimizer for ChunkedTell {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn init(&mut self, ctx: &mut SearchCtx<'_>, seed: u64, tel: &Telemetry) {
        self.inner.init(ctx, seed, tel);
    }
    fn ask(&mut self, ctx: &mut SearchCtx<'_>) -> Vec<Setting> {
        self.inner.ask(ctx)
    }
    fn tell(&mut self, obs: &[Observation]) {
        for c in obs.chunks(self.chunk) {
            self.inner.tell(c);
        }
    }
    fn mid_generation(&self) -> bool {
        self.inner.mid_generation()
    }
    fn asks_valid_only(&self) -> bool {
        self.inner.asks_valid_only()
    }
}

/// Splitting `tell` batches must be invisible: same seed, same budget,
/// bit-identical outcome whether costs arrive whole or three at a time.
#[test]
fn tell_chunking_never_changes_the_outcome() {
    for entry in zoo::tuners() {
        let Some(mut plain) = entry.optimizer() else { continue };
        let Some(inner) = entry.optimizer() else { continue };
        let cfg = KernelConfig { pop: 32, max_iterations: 6, stall_limit: 10_000 };

        let mut e = sim(7, 18.0);
        let whole = drive(&mut *plain, &mut e, &cfg, 7, &Telemetry::noop())
            .unwrap_or_else(|err| panic!("{}: {err:?}", entry.flag));

        let mut e = sim(7, 18.0);
        let mut chunked = ChunkedTell { inner, chunk: 3 };
        let split = drive(&mut chunked, &mut e, &cfg, 7, &Telemetry::noop())
            .unwrap_or_else(|err| panic!("{} (chunked): {err:?}", entry.flag));

        outcomes_bit_equal(&whole, &split)
            .unwrap_or_else(|err| panic!("{}: chunked tell diverged: {err}", entry.flag));
    }
}

/// One kernel tuner value may run many sessions (the experiment harness
/// and the pipeline tests reuse tuner values). Each run builds a fresh
/// optimizer, so a second same-seed run on a fresh evaluator repeats the
/// first bit for bit — warm seeds included, which the seeding strategies
/// consume as they run.
#[test]
fn reused_kernel_tuners_repeat_their_runs_bit_for_bit() {
    let mut donor = sim(99, 1e9);
    let seeds: Vec<Setting> = (0..8).map(|_| donor.random_valid()).collect();
    for entry in zoo::tuners() {
        let Some(mut tuner) = entry.kernel_tuner() else { continue };
        tuner.warm_start(seeds.clone());
        let first = tuner
            .tune(&mut sim(4, 10.0), 4)
            .unwrap_or_else(|err| panic!("{}: {err:?}", entry.flag));
        let second = tuner
            .tune(&mut sim(4, 10.0), 4)
            .unwrap_or_else(|err| panic!("{} (rerun): {err:?}", entry.flag));
        outcomes_bit_equal(&first, &second)
            .unwrap_or_else(|err| panic!("{}: reused tuner diverged: {err}", entry.flag));
    }
}

/// Two same-seed runs of every registered tuner through the production
/// session path produce byte-identical journals (wall fields stripped) —
/// the end-to-end form of the determinism contract, covering csTuner,
/// which the raw probes above cannot reach.
#[test]
fn same_seed_runs_are_byte_identical_across_the_zoo() {
    for entry in zoo::tuners() {
        let a = quick_tuner_journal(entry.flag, "j3d7pt", "a100", 5, 10.0);
        let b = quick_tuner_journal(entry.flag, "j3d7pt", "a100", 5, 10.0);
        assert!(!a.is_empty(), "{}: empty journal", entry.flag);
        assert_eq!(a, b, "{}: same-seed journals diverged", entry.flag);
    }
}
