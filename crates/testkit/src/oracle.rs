//! Differential oracles: two implementations that must agree to the bit.
//!
//! Each oracle runs the same workload down two code paths that the
//! engine promises are observationally identical — memoized vs
//! unmemoized simulator, same-seed run vs rerun — and compares the
//! results as *bits* (`f64::to_bits`), not approximately. Any divergence
//! returns `Err` with the first mismatching site, so a regression
//! pinpoints itself.

use cst_gpu_sim::cost::{eval_cost_s, kernel_cost_from_footprint};
use cst_gpu_sim::footprint::footprint;
use cst_gpu_sim::{EvalRecord, FaultProfile, GpuArch, GpuSim, ModelPrecomp, ValidSpace};
use cst_space::Setting;
use cst_stencil::StencilSpec;
use cstuner_core::{Evaluator, FaultStats, SimEvaluator, Tuner};

use crate::gen::{raw_settings, valid_settings};

/// Compare two f64 sequences bit-for-bit.
fn bits_equal(label: &str, a: &[f64], b: &[f64]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{label}: length {} vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!(
                "{label}[{i}]: {x} ({:016x}) vs {y} ({:016x})",
                x.to_bits(),
                y.to_bits()
            ));
        }
    }
    Ok(())
}

fn stats_equal(a: FaultStats, b: FaultStats) -> Result<(), String> {
    if a != b {
        return Err(format!("fault stats diverged: {a:?} vs {b:?}"));
    }
    Ok(())
}

/// Oracle: the simulator's shared memo is transparent — a shared-memo
/// [`GpuSim`] and its uncached twin produce bit-identical records and
/// identical validity verdicts for the same settings, including repeats.
pub fn memo_transparency(
    spec: &StencilSpec,
    arch: &GpuArch,
    seed: u64,
    n: usize,
) -> Result<(), String> {
    let mut memoized = GpuSim::new(spec.clone(), arch.clone());
    memoized.enable_shared_memo();
    let bare = memoized.clone().without_memo();
    let space = cst_space::OptSpace::for_stencil(spec);
    let mut batch = raw_settings(&space, seed, n);
    // Repeats exercise the memo-hit path against a fresh computation.
    let dups: Vec<Setting> = batch.iter().take(n / 4).copied().collect();
    batch.extend(dups);
    let (va, vb) =
        (ValidSpace::new(space.clone(), memoized.clone()), ValidSpace::new(space, bare.clone()));
    for (i, s) in batch.iter().enumerate() {
        records_equal(&format!("record[{i}]"), &memoized.evaluate_full(s), &bare.evaluate_full(s))?;
        if va.check(s) != vb.check(s) {
            return Err(format!("validity verdict diverged for {s:?}"));
        }
    }
    Ok(())
}

/// Compare two [`EvalRecord`]s field-by-field, f64s by bit pattern.
fn records_equal(label: &str, a: &EvalRecord, b: &EvalRecord) -> Result<(), String> {
    let (af, bf) = (&a.footprint, &b.footprint);
    let floats = [
        ("regs_per_thread", af.regs_per_thread, bf.regs_per_thread),
        ("occupancy", af.occupancy, bf.occupancy),
        ("waves", af.waves, bf.waves),
        ("tail_eff", af.tail_eff, bf.tail_eff),
        ("gld_eff", af.gld_eff, bf.gld_eff),
        ("gst_eff", af.gst_eff, bf.gst_eff),
        ("reads_eff", af.reads_eff, bf.reads_eff),
        ("dram_bytes", af.dram_bytes, bf.dram_bytes),
        ("flops_eff", af.flops_eff, bf.flops_eff),
        ("ilp", af.ilp, bf.ilp),
        ("cache_capture", af.cache_capture, bf.cache_capture),
        ("compute_ms", a.cost.compute_ms, b.cost.compute_ms),
        ("memory_ms", a.cost.memory_ms, b.cost.memory_ms),
        ("sync_ms", a.cost.sync_ms, b.cost.sync_ms),
        ("launch_ms", a.cost.launch_ms, b.cost.launch_ms),
        ("total_ms", a.cost.total_ms, b.cost.total_ms),
        ("cost_s", a.cost_s, b.cost_s),
    ];
    for (field, x, y) in floats {
        if x.to_bits() != y.to_bits() {
            return Err(format!("{label}: {field} diverged: {x} vs {y}"));
        }
    }
    let ints = [
        ("shmem_per_tb", af.shmem_per_tb, bf.shmem_per_tb),
        ("threads_total", af.threads_total, bf.threads_total),
        ("tb_size", af.tb_size as u64, bf.tb_size as u64),
        ("n_tbs", af.n_tbs, bf.n_tbs),
        ("tb_per_sm", af.tb_per_sm as u64, bf.tb_per_sm as u64),
        ("stream_steps", af.stream_steps, bf.stream_steps),
        ("uf_prod", af.uf_prod, bf.uf_prod),
        ("merged_pts", af.merged_pts, bf.merged_pts),
        ("spilled", af.spilled as u64, bf.spilled as u64),
        ("shmem_overflow", af.shmem_overflow as u64, bf.shmem_overflow as u64),
    ];
    for (field, x, y) in ints {
        if x != y {
            return Err(format!("{label}: {field} diverged: {x} vs {y}"));
        }
    }
    Ok(())
}

/// Oracle: the precomputed model ([`ModelPrecomp`], the simulator hot
/// path) is bit-identical to the direct reference composition
/// `footprint → kernel_cost_from_footprint → eval_cost_s`, on valid
/// settings and on raw (spilled / overflowing / unlaunchable) corners.
pub fn precomp_vs_direct(
    spec: &StencilSpec,
    arch: &GpuArch,
    seed: u64,
    n: usize,
) -> Result<(), String> {
    let sim = GpuSim::new(spec.clone(), arch.clone());
    let valid = ValidSpace::new(cst_space::OptSpace::for_stencil(spec), sim.clone());
    let pre = ModelPrecomp::new(spec.clone(), arch.clone());
    let mut batch = valid_settings(&valid, seed, n);
    batch.extend(raw_settings(valid.space(), seed ^ 0x5eed, n));
    let direct: Vec<EvalRecord> = batch
        .iter()
        .map(|s| {
            let f = footprint(spec, arch, s);
            let cost = kernel_cost_from_footprint(spec, arch, s, &f);
            let cost_s = eval_cost_s(spec, arch, s, cost.total_ms);
            EvalRecord { footprint: f, cost, cost_s }
        })
        .collect();
    for (i, (s, d)) in batch.iter().zip(&direct).enumerate() {
        records_equal(&format!("record[{i}]"), &pre.record(s), d)?;
        // The simulator front door serves the same bits.
        records_equal(&format!("evaluate_full[{i}]"), &sim.evaluate_full(s), d)?;
    }
    Ok(())
}

/// Oracle: with a fixed (evaluator seed, fault profile), two runs of the
/// same workload are bit-identical — times, clock, counters — however
/// hostile the profile.
pub fn fault_run_determinism(
    spec: &StencilSpec,
    arch: &GpuArch,
    seed: u64,
    profile: FaultProfile,
    n: usize,
) -> Result<(), String> {
    let run = || {
        let mut e = SimEvaluator::new(spec.clone(), arch.clone(), seed).with_fault_profile(profile);
        let batch = valid_settings(e.valid_space(), seed, n);
        let times: Vec<f64> = batch.iter().map(|s| e.evaluate(s)).collect();
        (times, e.clock().now_s(), e.fault_stats())
    };
    let (t1, c1, s1) = run();
    let (t2, c2, s2) = run();
    bits_equal("times across reruns", &t1, &t2)?;
    bits_equal("clock", &[c1], &[c2])?;
    stats_equal(s1, s2)
}

/// Oracle: the telemetry sink is observationally transparent — a full
/// quick csTuner run with a live in-memory journal produces a
/// [`TuningOutcome`](cstuner_core::TuningOutcome) bit-identical to the
/// same run with the noop handle (journal off). Telemetry may observe
/// the pipeline; it must never perturb it.
pub fn journal_transparency(
    spec: &StencilSpec,
    arch: &GpuArch,
    seed: u64,
    profile: FaultProfile,
) -> Result<(), String> {
    let run = |tel: &cst_telemetry::Telemetry| {
        let mut e = SimEvaluator::new(spec.clone(), arch.clone(), seed).with_fault_profile(profile);
        e.set_telemetry(tel);
        let cfg = cstuner_core::CsTunerConfig {
            dataset_size: 48,
            max_iterations: 8,
            codegen_cap: 16,
            ..Default::default()
        };
        let out = cstuner_core::CsTuner::new(cfg)
            .tune_with_telemetry(&mut e, seed, tel)
            .map_err(|e| format!("tune failed: {e}"))?;
        Ok::<_, String>((out, e.fault_stats()))
    };
    let (off, stats_off) = run(&cst_telemetry::Telemetry::noop())?;
    let (on, stats_on) = run(&cst_telemetry::Telemetry::in_memory())?;
    if off.best_setting != on.best_setting {
        return Err(format!(
            "best setting diverged: {:?} vs {:?}",
            off.best_setting.0, on.best_setting.0
        ));
    }
    bits_equal("best_ms", &[off.best_time_ms], &[on.best_time_ms])?;
    bits_equal("search_s", &[off.search_s], &[on.search_s])?;
    bits_equal(
        "preproc",
        &[off.preproc.grouping_s, off.preproc.sampling_s, off.preproc.codegen_s],
        &[on.preproc.grouping_s, on.preproc.sampling_s, on.preproc.codegen_s],
    )?;
    if off.evaluations != on.evaluations {
        return Err(format!("evaluations diverged: {} vs {}", off.evaluations, on.evaluations));
    }
    let (ca, cb): (Vec<f64>, Vec<f64>) = (
        off.curve.iter().flat_map(|p| [p.iteration as f64, p.elapsed_s, p.best_ms]).collect(),
        on.curve.iter().flat_map(|p| [p.iteration as f64, p.elapsed_s, p.best_ms]).collect(),
    );
    bits_equal("curve", &ca, &cb)?;
    stats_equal(stats_off, stats_on)?;
    Ok(())
}

/// Compare two [`TuningOutcome`](cstuner_core::TuningOutcome)s as bits:
/// tuner name, best setting, best/search times, evaluation count, the
/// full convergence curve, the pre-processing breakdown, and fault
/// counters. The `ga_asktell_oracle` differential test uses this to
/// prove the GA-through-the-kernel path identical to the legacy
/// closed-loop driver.
pub fn outcomes_bit_equal(
    a: &cstuner_core::TuningOutcome,
    b: &cstuner_core::TuningOutcome,
) -> Result<(), String> {
    if a.tuner != b.tuner {
        return Err(format!("tuner name diverged: {} vs {}", a.tuner, b.tuner));
    }
    if a.best_setting != b.best_setting {
        return Err(format!(
            "best setting diverged: {:?} vs {:?}",
            a.best_setting.0, b.best_setting.0
        ));
    }
    bits_equal("best_ms", &[a.best_time_ms], &[b.best_time_ms])?;
    bits_equal("search_s", &[a.search_s], &[b.search_s])?;
    bits_equal(
        "preproc",
        &[a.preproc.grouping_s, a.preproc.sampling_s, a.preproc.codegen_s],
        &[b.preproc.grouping_s, b.preproc.sampling_s, b.preproc.codegen_s],
    )?;
    if a.evaluations != b.evaluations {
        return Err(format!("evaluations diverged: {} vs {}", a.evaluations, b.evaluations));
    }
    let (ca, cb): (Vec<f64>, Vec<f64>) = (
        a.curve.iter().flat_map(|p| [p.iteration as f64, p.elapsed_s, p.best_ms]).collect(),
        b.curve.iter().flat_map(|p| [p.iteration as f64, p.elapsed_s, p.best_ms]).collect(),
    );
    bits_equal("curve", &ca, &cb)?;
    stats_equal(a.faults, b.faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_stencil::suite;

    #[test]
    fn oracles_hold_on_a_reference_stencil() {
        let spec = suite::spec_by_name("j3d7pt").unwrap();
        let arch = GpuArch::a100();
        memo_transparency(&spec, &arch, 1, 24).unwrap();
        fault_run_determinism(&spec, &arch, 1, FaultProfile::Hostile { seed: 5 }, 24).unwrap();
    }

    #[test]
    fn bits_equal_reports_first_divergence() {
        let err = bits_equal("t", &[1.0, 2.0], &[1.0, 2.0 + 1e-12]).unwrap_err();
        assert!(err.starts_with("t[1]"), "{err}");
        assert!(bits_equal("t", &[f64::INFINITY], &[f64::INFINITY]).is_ok());
        assert!(bits_equal("t", &[1.0], &[1.0, 2.0]).is_err());
    }
}
