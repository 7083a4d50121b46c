//! Criterion micro-benchmarks of the tuner's hot components, one family
//! per experiment stage:
//!
//! - the GPU model evaluation (millions of calls per experiment),
//! - parameter-space validation and sampling, explicit and fully valid,
//!   and group enumeration,
//! - the offline performance dataset (rejection sampling and profiles),
//! - PMNF fitting (the `curve_fit` replacement), one target and all of a
//!   session's targets,
//! - the full-scale sampling stage (fits, enumeration and the scored cut),
//! - parameter grouping (Algorithm 1 incl. pairwise CVs),
//! - the shared forest surrogate, as Garvey and warm starts fit it, and
//!   warm-start ranking,
//! - one GA generation,
//! - CUDA code generation, baseline and retimed,
//! - a small end-to-end tuning session.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use cst_ga::{GaConfig, GaState, Genome};
use cst_gpu_sim::{GpuArch, GpuSim, ValidSpace};
use cst_ml::Surrogate;
use cst_space::ParamId;
use cst_space::{OptSpace, Setting};
use cst_stencil::suite;
use cst_telemetry::Telemetry;
use cst_transfer::warm::arch_features;
use cst_transfer::{warm_seeds, KbRecord, KnowledgeBase, DEFAULT_TOP_K};
use cstuner_core::{
    combine_metrics, group_from_dataset, sample_space, select_representatives, CsTuner,
    CsTunerConfig, Evaluator, PerfDataset, SamplingConfig, SimEvaluator, Tuner,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_sim_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("gpu-sim");
    for name in ["j3d7pt", "rhs4center"] {
        let spec = suite::spec_by_name(name).unwrap();
        let sim = GpuSim::new(spec, GpuArch::a100());
        let s = Setting::baseline();
        g.bench_function(format!("kernel_time/{name}"), |b| {
            b.iter(|| black_box(sim.kernel_time_ms(black_box(&s))))
        });
        g.bench_function(format!("profile/{name}"), |b| {
            b.iter(|| black_box(sim.profile(black_box(&s))))
        });
    }
    g.finish();
}

fn bench_space(c: &mut Criterion) {
    let mut g = c.benchmark_group("space");
    let spec = suite::spec_by_name("j3d7pt").unwrap();
    let space = OptSpace::for_stencil(&spec);
    let s = Setting::baseline();
    g.bench_function("check_explicit", |b| {
        b.iter(|| black_box(space.check_explicit(black_box(&s))))
    });
    g.bench_function("random_explicit_valid/j3d7pt", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(space.random_explicit_valid(&mut rng)))
    });
    // j3d7pt on the A100 takes about 67 raw draws per valid setting,
    // addsgd6 on the small preset about 370.
    let vs = ValidSpace::new(space, GpuSim::new(spec, GpuArch::a100()));
    g.bench_function("random_valid", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(vs.random_valid(&mut rng)))
    });
    let spec = suite::spec_by_name("addsgd6").unwrap();
    let vs = ValidSpace::new(OptSpace::for_stencil(&spec), GpuSim::new(spec, GpuArch::small()));
    g.bench_function("random_valid/addsgd6_small", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(vs.random_valid(&mut rng)))
    });
    g.finish();
}

fn bench_enumeration(c: &mut Criterion) {
    // Group enumeration around a full-scale session's incumbent (the best
    // of hypterm/a100's seed-7 dataset of 128 records): Garvey's x bundle,
    // and the first four-parameter group Algorithm 1 forms from the same
    // dataset, as csTuner's sampling cut enumerates it.
    let mut e = SimEvaluator::new(suite::spec_by_name("hypterm").unwrap(), GpuArch::a100(), 7);
    let ds = PerfDataset::collect(&mut e, 128, 7);
    let base = ds.best().setting;
    let cstuner =
        group_from_dataset(&ds).into_iter().find(|g| g.len() == 4).expect("a four-parameter group");
    let garvey = [ParamId::TBx, ParamId::UFx, ParamId::CMx, ParamId::BMx];
    let space = e.space();
    let mut g = c.benchmark_group("space");
    for (name, group) in [("garvey_x", &garvey[..]), ("cstuner_4", &cstuner[..])] {
        g.bench_function(format!("enumerate_group/{name}"), |b| {
            b.iter(|| black_box(space.enumerate_group_repaired(black_box(&base), group).len()))
        });
    }
    g.finish();
}

fn bench_dataset(c: &mut Criterion) {
    // The offline dataset at full scale: 128 records rejection-sampled
    // through the explicit and resource checks, each profiled once, by a
    // fresh evaluator as in a session.
    let mut g = c.benchmark_group("dataset");
    g.sample_size(20);
    g.bench_function("collect_128", |b| {
        b.iter_batched(
            || SimEvaluator::new(suite::spec_by_name("hypterm").unwrap(), GpuArch::a100(), 7),
            |mut e| black_box(PerfDataset::collect(&mut e, 128, 7).len()),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_pmnf(c: &mut Criterion) {
    let mut e = SimEvaluator::new(suite::spec_by_name("cheby").unwrap(), GpuArch::a100(), 2);
    let ds = PerfDataset::collect(&mut e, 64, 3);
    let xs = ds.param_values();
    let y = ds.times();
    let groups: Vec<Vec<usize>> = (0..cst_space::N_PARAMS).map(|i| vec![i]).collect();
    c.bench_function("pmnf/fit_64x19", |b| {
        b.iter(|| black_box(cst_stats::fit_pmnf(black_box(&xs), black_box(&y), black_box(&groups))))
    });
    // A session's targets: four metric models and the time model.
    let columns: Vec<Vec<f64>> = (0..4).map(|m| ds.metric_column(m)).chain([y.clone()]).collect();
    let targets: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
    c.bench_function("pmnf/fit_all_targets", |b| {
        b.iter(|| {
            black_box(cst_stats::fit_pmnf_targets(
                black_box(&xs),
                black_box(&targets),
                black_box(&groups),
            ))
        })
    });
}

fn bench_sampling(c: &mut Criterion) {
    let cfg = CsTunerConfig::default();
    let mut e = SimEvaluator::new(suite::spec_by_name("hypterm").unwrap(), GpuArch::a100(), 7);
    let ds = PerfDataset::collect(&mut e, cfg.dataset_size, 7);
    let groups = group_from_dataset(&ds);
    let reps = select_representatives(&ds, &combine_metrics(&ds, cfg.n_metric_collections));
    let scfg = SamplingConfig::default();
    let tel = Telemetry::noop();
    let mut g = c.benchmark_group("sampling");
    g.sample_size(20);
    g.bench_function("sample_space", |b| {
        b.iter(|| black_box(sample_space(&ds, &groups, &reps, &e, &scfg, &tel).scored))
    });
    g.finish();
}

fn bench_grouping(c: &mut Criterion) {
    let mut e = SimEvaluator::new(suite::spec_by_name("addsgd4").unwrap(), GpuArch::a100(), 4);
    let ds = PerfDataset::collect(&mut e, 128, 5);
    c.bench_function("grouping/alg1_128rec", |b| {
        b.iter(|| black_box(group_from_dataset(black_box(&ds))))
    });
}

/// `hypterm` records measured on V100 only: three seeded 128-record
/// datasets, so ranking for A100 trains the cross-arch surrogate.
fn hypterm_v100_kb() -> KnowledgeBase {
    let spec = suite::spec_by_name("hypterm").unwrap();
    let mut records = Vec::new();
    for seed in 0..3 {
        let mut e = SimEvaluator::new(spec.clone(), GpuArch::v100(), seed);
        for r in PerfDataset::collect(&mut e, 128, seed).records {
            records.push(KbRecord {
                stencil: "hypterm".into(),
                arch: GpuArch::v100().name.into(),
                setting: r.setting.to_string(),
                time_ms: r.time_ms,
                source: format!("feed-{seed}"),
                origin: String::new(),
            });
        }
    }
    KnowledgeBase { records }
}

fn bench_surrogate(c: &mut Criterion) {
    // The forest fit as Garvey makes it (hypterm/a100, the seed-7
    // dataset, Garvey's rng stream), then as a cross-arch warm start
    // makes it: 384 V100 rows of 19 setting and 12 arch features.
    let mut g = c.benchmark_group("ml");
    let mut e = SimEvaluator::new(suite::spec_by_name("hypterm").unwrap(), GpuArch::a100(), 7);
    let ds = PerfDataset::collect(&mut e, 128, 7);
    let xs: Vec<Vec<f64>> = ds.records.iter().map(|r| r.setting.features().to_vec()).collect();
    let times = ds.times();
    g.bench_function("surrogate_fit/garvey_128x19", |b| {
        b.iter(|| black_box(Surrogate::fit(&xs, &times, &mut StdRng::seed_from_u64(7 ^ 0x6a2_7e1))))
    });
    let kb = hypterm_v100_kb();
    let arch = arch_features(&GpuArch::v100());
    let (xs, times): (Vec<Vec<f64>>, Vec<f64>) = kb
        .records
        .iter()
        .map(|r| {
            let mut x = r.parsed_setting().unwrap().features().to_vec();
            x.extend(&arch);
            (x, r.time_ms)
        })
        .unzip();
    g.bench_function("surrogate_fit/cross_arch", |b| {
        b.iter(|| black_box(Surrogate::fit(&xs, &times, &mut StdRng::seed_from_u64(7))))
    });
    g.finish();
    c.bench_function("transfer/warm_seeds", |b| {
        b.iter(|| black_box(warm_seeds(&kb, "hypterm", GpuArch::a100().name, DEFAULT_TOP_K, 7)))
    });
}

fn bench_ga(c: &mut Criterion) {
    c.bench_function("ga/step_2x16_13genes", |b| {
        b.iter_batched(
            || GaState::new(Genome::new(vec![32; 13]), GaConfig::default(), 7),
            |mut state| {
                let mut f = |g: &[u32]| -(g.iter().map(|&v| v as f64).sum::<f64>());
                state.step(&mut f);
                black_box(state.best().cloned())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_codegen(c: &mut Criterion) {
    let mut g = c.benchmark_group("codegen");
    for name in ["j3d7pt", "rhs4center"] {
        let kernel = suite::kernel_by_name(name).unwrap();
        let s = Setting::baseline();
        g.bench_function(format!("generate/{name}"), |b| {
            b.iter(|| black_box(cst_codegen::generate_cuda(black_box(&kernel), black_box(&s))))
        });
    }
    // The expensive path: every term of every stage on its own line.
    let kernel = suite::kernel_by_name("rhs4center").unwrap();
    let s = Setting::baseline().with(ParamId::UseRetiming, 2);
    g.bench_function("generate/rhs4center_retimed", |b| {
        b.iter(|| black_box(cst_codegen::generate_cuda(black_box(&kernel), black_box(&s))))
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end-to-end");
    g.sample_size(10);
    g.bench_function("cstuner/j3d7pt_5iter", |b| {
        b.iter(|| {
            let spec = suite::spec_by_name("j3d7pt").unwrap();
            let mut e = SimEvaluator::new(spec, GpuArch::a100(), 0);
            let cfg = CsTunerConfig {
                dataset_size: 48,
                max_iterations: 5,
                codegen_cap: 8,
                ..Default::default()
            };
            black_box(CsTuner::new(cfg).tune(&mut e, 0).unwrap().best_time_ms)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sim_eval,
    bench_space,
    bench_enumeration,
    bench_dataset,
    bench_pmnf,
    bench_sampling,
    bench_grouping,
    bench_surrogate,
    bench_ga,
    bench_codegen,
    bench_end_to_end
);
criterion_main!(benches);
