//! Property suite for the ask/tell optimizer contract.
//!
//! Every tuner in the zoo must honor the kernel's contract
//! (`crates/core/src/asktell.rs`): asked settings are valid for the
//! strategies whose docs promise it, the iso-time budget is never
//! exceeded by more than one in-flight evaluation, `drive` tells every
//! ask once, whole and in order, with skips only trailing, and two
//! same-seed runs are byte-identical end to end. Every
//! entry but csTuner, which keeps its own search loop, exposes its
//! optimizer to the raw `ask`/`tell` probes.

use cst_baselines::zoo;
use cst_gpu_sim::GpuArch;
use cst_space::Setting;
use cst_stencil::suite;
use cst_telemetry::Telemetry;
use cst_testkit::{outcomes_bit_equal, quick_tuner_journal, PropRunner};
use cstuner_core::{drive, Evaluator, Observation, Optimizer, SearchCtx, SimEvaluator, Tuner};

fn sim(seed: u64, budget_s: f64) -> SimEvaluator {
    SimEvaluator::with_budget(
        suite::spec_by_name("j3d7pt").unwrap(),
        GpuArch::a100(),
        seed,
        budget_s,
    )
}

/// The strategies whose docs promise that every asked setting is valid
/// for the (stencil, arch). The others explore invalid encodings (the
/// GA's raw genomes, the grid lattice, Garvey's and Artemis's edits)
/// and find the resource limits by measuring.
const VALID_ASKERS: [&str; 3] = ["random", "anneal", "forest"];

/// Probe each kernel strategy's raw `ask`/`tell` conversation:
/// every asked setting of a [`VALID_ASKERS`] strategy must satisfy full
/// (stencil, arch) validity, and every strategy must ask something,
/// across proptest-drawn seeds.
#[test]
fn asked_settings_are_valid_when_claimed() {
    PropRunner::new("asked-settings-valid").cases(16).run(&(0u64..1 << 16), |seed| {
        for entry in zoo::tuners() {
            let Some(mut opt) = entry.optimizer() else { continue };
            let valid_only = VALID_ASKERS.contains(&entry.flag);
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
                    if valid_only && !e.is_valid(&s) {
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

/// Forwarding wrapper that checks rules 2 and 3 of the determinism
/// contract on every `tell` the kernel makes: it carries exactly the
/// settings of the ask before it, in order, it comes before the next
/// ask, and its skips only trail the batch.
struct ToldOnce {
    inner: Box<dyn Optimizer>,
    flag: &'static str,
    /// The last ask, until it is told.
    pending: Option<Vec<Setting>>,
    /// Skipped settings told so far.
    skips: usize,
}

impl Optimizer for ToldOnce {
    fn init(&mut self, ctx: &mut SearchCtx<'_>, seed: u64, tel: &Telemetry) {
        self.inner.init(ctx, seed, tel);
    }
    fn ask(&mut self, ctx: &mut SearchCtx<'_>) -> Vec<Setting> {
        assert!(self.pending.is_none(), "{}: asked before the last ask was told", self.flag);
        let batch = self.inner.ask(ctx);
        self.pending = Some(batch.clone());
        batch
    }
    fn tell(&mut self, obs: &[Observation]) {
        let asked = self.pending.take().unwrap_or_else(|| panic!("{}: told unasked", self.flag));
        let told: Vec<Setting> = obs.iter().map(|o| o.setting).collect();
        assert_eq!(told, asked, "{}: a tell is not its ask, whole and in order", self.flag);
        let measured = obs.iter().take_while(|o| o.time_ms.is_some()).count();
        let skipped = &obs[measured..];
        assert!(skipped.iter().all(|o| o.time_ms.is_none()), "{}: a skip before a time", self.flag);
        self.skips += skipped.len();
        self.inner.tell(obs);
    }
    fn mid_generation(&self) -> bool {
        self.inner.mid_generation()
    }
}

/// `drive` tells every ask once, whole and in ask order, before the next
/// ask, with skips only at the end, and watching that changes nothing:
/// the wrapped run is bit-identical to a plain one. The budget expires
/// mid-batch, so the sweep must see skips told.
#[test]
fn every_ask_is_told_once_whole_and_in_order() {
    let mut skips = 0;
    for entry in zoo::tuners() {
        let Some(mut plain) = entry.optimizer() else { continue };
        let Some(inner) = entry.optimizer() else { continue };

        let mut e = sim(7, 18.0);
        let alone = drive(&mut *plain, &mut e, entry.display, 6, 7, &Telemetry::noop())
            .unwrap_or_else(|err| panic!("{}: {err:?}", entry.flag));

        let mut e = sim(7, 18.0);
        let mut checked = ToldOnce { inner, flag: entry.flag, pending: None, skips: 0 };
        let watched = drive(&mut checked, &mut e, entry.display, 6, 7, &Telemetry::noop())
            .unwrap_or_else(|err| panic!("{} (watched): {err:?}", entry.flag));

        outcomes_bit_equal(&alone, &watched)
            .unwrap_or_else(|err| panic!("{}: the watched run diverged: {err}", entry.flag));
        skips += checked.skips;
    }
    assert!(skips > 0, "no budget expired mid-batch, so no skip was told");
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
