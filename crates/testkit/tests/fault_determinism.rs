//! Determinism under faults at experiment scale: a forced multi-lane
//! worker pool plus the hostile fault profile must still produce
//! byte-identical `--quick`-style experiment output across two runs with
//! the same seeds, and no search driver may panic or deadlock on a
//! hostile — even totally failing — testbed.
//!
//! This binary owns its process environment: it forces the pool width
//! before first use, so it must stay the only test file that does so.

use cst_baselines::zoo;
use cst_bench::runners::tuner;
use cst_gpu_sim::{FaultKind, FaultProfile, FaultStats, GpuArch, MetricsReport, VirtualClock};
use cst_space::{OptSpace, Setting, SettingSet};
use cst_stencil::{suite, StencilSpec};
use cst_testkit::hex_bits;
use cstuner_core::{Evaluator, SimEvaluator};
use rayon::prelude::*;
use std::fmt::Write as _;

/// Force a four-lane pool even on single-CPU hosts, before its first
/// use anywhere in this binary. The lane count is read once, so setting
/// `RAYON_NUM_THREADS` here overrides any ambient value, including
/// `RAYON_NUM_THREADS=1`.
fn force_parallel_lanes() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::set_var("RAYON_NUM_THREADS", "4");
        assert!(rayon::current_num_threads() > 1, "pool must be multi-lane");
    });
}

/// The paper's four tuners plus random search, by zoo flag.
const TUNERS: [&str; 5] = ["cstuner", "garvey", "opentuner", "artemis", "random"];

/// One `--quick`-scale iso-iteration sweep (stencils × tuners × seeds)
/// on the hostile testbed, run on the parallel pool, and
/// formatted as a deterministic byte-exact report: only seed-derived
/// quantities (virtual times, bit-exact measurements, counters) appear —
/// never wall-clock.
fn faulty_quick_sweep(fault_seed: u64) -> String {
    let stencils = ["j3d7pt", "cheby"];
    let mut jobs = Vec::new();
    for stencil in stencils {
        for flag in TUNERS {
            for seed in 0..2u64 {
                jobs.push((stencil, flag, seed));
            }
        }
    }
    let mut lines: Vec<String> = jobs
        .par_iter()
        .map(|&(stencil, flag, seed)| {
            let spec = suite::spec_by_name(stencil).unwrap();
            let mut eval = SimEvaluator::new(spec, GpuArch::a100(), seed)
                .with_fault_profile(FaultProfile::Hostile { seed: fault_seed });
            let out = tuner(flag, 4)
                .tune(&mut eval, seed)
                .expect("tuning must survive a hostile testbed");
            let f = out.faults;
            let mut line = String::new();
            let _ = write!(
                line,
                "{stencil}/{}/{seed}: best={} evals={} search={} faults={}/{}/{}/{} retries={} quarantined={} curve=",
                out.tuner,
                hex_bits(out.best_time_ms),
                out.evaluations,
                hex_bits(out.search_s),
                f.compile_errors,
                f.launch_failures,
                f.timeouts,
                f.outliers,
                f.retries,
                f.quarantined,
            );
            for p in &out.curve {
                let _ = write!(line, "({},{},{})", p.iteration, hex_bits(p.elapsed_s), hex_bits(p.best_ms));
            }
            line
        })
        .collect();
    // Canonical order: the report must not depend on pool scheduling.
    lines.sort();
    lines.join("\n")
}

#[test]
fn quick_sweep_is_byte_identical_across_runs_under_faults() {
    force_parallel_lanes();
    let a = faulty_quick_sweep(7);
    let b = faulty_quick_sweep(7);
    assert_eq!(a, b, "same seeds + same fault profile must reproduce byte-identically");
    assert!(
        a.lines().any(|l| !l.contains("faults=0/0/0/0")),
        "the hostile profile should actually inject faults:\n{a}"
    );
    // And the fault seed must matter — otherwise injection is dead code.
    assert_ne!(a, faulty_quick_sweep(8));
}

/// A testbed on which no measurement succeeds: each setting's first
/// evaluation fails at compile, charges the virtual clock the setting's
/// compile-and-run cost and commits `f64::INFINITY`, as a quarantined
/// setting does; a repeat is free. The space, validity, offline
/// profiling and draws are the simulator's.
struct NothingRuns {
    sim: SimEvaluator,
    clock: VirtualClock,
    failed: SettingSet,
    stats: FaultStats,
}

impl Evaluator for NothingRuns {
    fn spec(&self) -> &StencilSpec {
        self.sim.spec()
    }
    fn space(&self) -> &OptSpace {
        self.sim.space()
    }
    fn is_valid(&self, s: &Setting) -> bool {
        self.sim.is_valid(s)
    }
    fn evaluate(&mut self, s: &Setting) -> f64 {
        if self.failed.insert(*s) {
            self.clock.advance(self.sim.sim().evaluate_full(s).cost_s);
            self.stats.record(FaultKind::CompileError);
            self.stats.quarantined += 1;
        }
        f64::INFINITY
    }
    fn profile_offline(&mut self, s: &Setting) -> MetricsReport {
        self.sim.profile_offline(s)
    }
    fn clock(&self) -> &VirtualClock {
        &self.clock
    }
    fn unique_evaluations(&self) -> u64 {
        self.failed.len() as u64
    }
    fn fault_stats(&self) -> FaultStats {
        self.stats
    }
    fn random_valid(&mut self) -> Setting {
        self.sim.random_valid()
    }
}

#[test]
fn all_drivers_survive_a_totally_failing_testbed() {
    force_parallel_lanes();
    // Every measurement fails: the only acceptable outcome is a clean
    // error (nothing measurable) — never a panic or a hang. The budget
    // bounds the run: every failed measurement still charges the
    // virtual clock.
    let spec = suite::spec_by_name("j3d7pt").unwrap();
    for flag in TUNERS {
        let name = zoo::find(flag).unwrap().display;
        let mut eval = NothingRuns {
            sim: SimEvaluator::new(spec.clone(), GpuArch::a100(), 1),
            clock: VirtualClock::with_budget(30.0),
            failed: SettingSet::default(),
            stats: FaultStats::default(),
        };
        let result = tuner(flag, 4).tune(&mut eval, 1);
        assert!(
            result.is_err(),
            "{name}: a testbed where nothing runs cannot produce a best setting"
        );
        assert!(eval.fault_stats().failures() > 0, "{name}: no faults recorded");
    }
}
