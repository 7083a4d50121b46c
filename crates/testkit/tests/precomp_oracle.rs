//! Differential oracle for the precomputed model: the hot path
//! ([`cst_gpu_sim::ModelPrecomp`] — lookup tables plus hoisted arch and
//! stencil constants) must reproduce the direct reference composition
//! `footprint → kernel_cost_from_footprint → eval_cost_s` *bit for bit*,
//! for every stencil in the suite on both reference architectures.
//! Approximate agreement is not enough: the precomputed path backs every
//! memoized record, so a single ULP of drift would silently change golden
//! fixtures, journal bytes and tuning outcomes.
//!
//! The same bar holds for the sampling stage's precomputation: the
//! multi-target PMNF fit and the table-driven slowness scorer must
//! reproduce separate fits and [`cst_stats::PmnfModel::predict`] bit for
//! bit.

use cst_gpu_sim::GpuArch;
use cst_space::Setting;
use cst_stats::{fit_pmnf, PmnfModel};
use cst_stencil::suite;
use cst_telemetry::Telemetry;
use cst_testkit::{arb_setting, precomp_vs_direct, seeded_rng, PropRunner};
use cstuner_core::{
    combine_metrics, group_from_dataset, sample_space, scoring_contexts, select_representatives,
    Evaluator, PerfDataset, SampledSpace, SamplingConfig, SimEvaluator,
};
use rand::Rng;

/// Full suite × both arches × random settings (valid ones plus raw
/// spilled/overflowing corners — the oracle generates both).
#[test]
fn precomputed_model_matches_direct_path_across_the_suite() {
    for (i, k) in suite::all_kernels().iter().enumerate() {
        for (j, arch) in [GpuArch::a100(), GpuArch::v100()].iter().enumerate() {
            let seed = (i as u64) << 8 | j as u64;
            precomp_vs_direct(&k.spec, arch, seed, 24)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", k.spec.name, arch.name));
        }
    }
}

/// Property form: proptest-generated settings (which bias toward the
/// lattice corners the seeded generators rarely reach) agree too.
#[test]
fn precomputed_model_matches_direct_path_on_generated_settings() {
    let spec = suite::spec_by_name("hypterm").unwrap();
    let arch = GpuArch::a100();
    let pre = cst_gpu_sim::ModelPrecomp::new(spec.clone(), arch.clone());
    PropRunner::new("precomp-vs-direct").cases(96).run(&arb_setting(spec.grid), |s| {
        let f = cst_gpu_sim::footprint::footprint(&spec, &arch, &s);
        let cost = cst_gpu_sim::cost::kernel_cost_from_footprint(&spec, &arch, &s, &f);
        let cost_s = cst_gpu_sim::cost::eval_cost_s(&spec, &arch, &s, cost.total_ms);
        let got = pre.record(&s);
        let bits = [
            ("total_ms", got.cost.total_ms, cost.total_ms),
            ("cost_s", got.cost_s, cost_s),
            ("occupancy", got.footprint.occupancy, f.occupancy),
        ];
        for (field, x, y) in bits {
            if x.to_bits() != y.to_bits() {
                return Err(format!("{field} diverged for {s:?}: {x} vs {y}"));
            }
        }
        if got.footprint.spilled != f.spilled || got.footprint.shmem_overflow != f.shmem_overflow {
            return Err(format!("resource verdict diverged for {s:?}"));
        }
        Ok(())
    });
}

fn same_model(what: &str, a: &PmnfModel, b: &PmnfModel) -> Result<(), String> {
    let bits = |m: &PmnfModel| m.coeffs.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    if a.candidate != b.candidate || bits(a) != bits(b) || a.rse.to_bits() != b.rse.to_bits() {
        return Err(format!("{what}: shared fit {a:?} vs separate fit {b:?}"));
    }
    Ok(())
}

/// The slowness rule stated over the reference [`PmnfModel::predict`].
fn reference_slowness(sampled: &SampledSpace, s: &Setting) -> f64 {
    let x: Vec<f64> = s.0.iter().map(|&v| v as f64).collect();
    let mut sc = 2.0 * (sampled.time_model.predict(&x) - sampled.time_mu) / sampled.time_sigma;
    for m in &sampled.models {
        let z = (m.model.predict(&x) - m.mu) / m.sigma;
        sc += m.time_pcc * z;
    }
    sc
}

fn same_slowness(sampled: &SampledSpace, s: &Setting) -> Result<(), String> {
    let (got, want) = (sampled.predicted_slowness(s), reference_slowness(sampled, s));
    if got.to_bits() != want.to_bits() {
        return Err(format!("slowness of {s}: scorer {got:e} vs reference {want:e}"));
    }
    Ok(())
}

/// One full-scale sampling stage against its references: every fitted
/// model against a separate [`fit_pmnf`] on its target, and the scorer
/// against the reference rule on every (combo, context) the cut scores
/// and on random decoded gene vectors.
fn sampling_vs_reference(name: &str, arch: &GpuArch, seed: u64) -> Result<(), String> {
    let cfg = SamplingConfig::default();
    let mut e = SimEvaluator::new(suite::spec_by_name(name).unwrap(), arch.clone(), seed);
    let ds = PerfDataset::collect(&mut e, 128, seed);
    let groups = group_from_dataset(&ds);
    let reps = select_representatives(&ds, &combine_metrics(&ds, 4));
    let sampled = sample_space(&ds, &groups, &reps, &e, &cfg, &Telemetry::noop());

    let xs = ds.param_values();
    let terms = &sampled.time_model.groups;
    let fit = |y: &[f64]| fit_pmnf(&xs, y, terms);
    for m in &sampled.models {
        same_model(&format!("metric {}", m.metric), &m.model, &fit(&ds.metric_column(m.metric)))?;
    }
    let log_times: Vec<f64> = ds.times().iter().map(|t| t.max(1e-6).ln()).collect();
    same_model("log_time_ms", &sampled.time_model, &fit(&log_times))?;

    let contexts = scoring_contexts(&ds);
    for group in &sampled.groups {
        let combos = e.space().enumerate_group_repaired(&sampled.base, group);
        for combo in combos.chunks_exact(group.len()) {
            for ctx in &contexts {
                let mut s = *ctx;
                for (&p, &v) in group.iter().zip(combo) {
                    s.set(p, v);
                }
                s.canonicalize();
                same_slowness(&sampled, &s)?;
            }
        }
    }
    let cards = sampled.cards();
    let mut rng = seeded_rng(seed);
    for _ in 0..256 {
        let genes: Vec<u32> = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
        same_slowness(&sampled, &sampled.decode(&genes))?;
    }
    Ok(())
}

/// The sampling stage's shared fit and scorer across the paper suite,
/// both arches and two seeds, at full scale (128-record datasets).
#[test]
fn sampling_fit_and_scorer_match_their_references() {
    for k in suite::all_specs() {
        for arch in [GpuArch::a100(), GpuArch::v100()] {
            for seed in [1, 2] {
                sampling_vs_reference(k.name, &arch, seed)
                    .unwrap_or_else(|e| panic!("{} on {} seed {seed}: {e}", k.name, arch.name));
            }
        }
    }
}
