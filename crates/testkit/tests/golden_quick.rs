//! Golden-trace regression fixtures for `--quick`-scale tuning runs.
//!
//! Each trace renders every float as its exact bit pattern, so these
//! tests pin the entire numeric behaviour of the model + search pipeline
//! for a fixed seed: any unintended drift — in the cost model, the rng
//! streams, the fault charges, the search order — shows up as a one-line
//! fixture diff. After an *intentional* change, re-bless with
//! `CST_BLESS=1 cargo test -p cst-testkit --test golden_quick`.

use cst_bench::runners::{run, sweep, tuner, RunResult, ABLATION, PAPER};
use cst_gpu_sim::{FaultProfile, GpuArch, GpuSim, ValidSpace};
use cst_ml::Surrogate;
use cst_obs::JournalStore;
use cst_serve::{run_session, FaultSpec, TuneRequest};
use cst_space::hash::fnv1a;
use cst_space::{OptSpace, ParamId, Setting};
use cst_stencil::StencilSpec;
use cst_telemetry::{strip_wall_fields, Telemetry};
use cst_testkit::{
    check_golden, hex_bits, preproc_trace, quick_tune_trace, valid_settings, TraceOptions,
};
use cst_transfer::{warm_seeds, KnowledgeBase, DEFAULT_TOP_K};
use cstuner_core::{
    combine_metrics, group_from_dataset, sample_space, select_representatives, CsTuner,
    CsTunerConfig, PerfDataset, SimEvaluator,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt::Write as _;

#[test]
fn quick_tune_j3d7pt_a100_is_pinned() {
    let trace = quick_tune_trace("j3d7pt", &GpuArch::a100(), &TraceOptions::default());
    check_golden("quick_tune_j3d7pt_a100", &trace);
}

#[test]
fn quick_tune_cheby_v100_is_pinned() {
    let opts = TraceOptions { seed: 3, ..Default::default() };
    let trace = quick_tune_trace("cheby", &GpuArch::v100(), &opts);
    check_golden("quick_tune_cheby_v100", &trace);
}

#[test]
fn preproc_breakdown_fig12_is_pinned() {
    // Fig. 12's pre-processing fractions come from the virtual cost
    // model, not wall time, so they are bit-reproducible and pinnable.
    let trace = preproc_trace("j3d7pt", &GpuArch::a100(), &TraceOptions::default());
    check_golden("preproc_fig12_j3d7pt_a100", &trace);
}

#[test]
fn quick_tune_under_hostile_faults_is_pinned() {
    // The faulty path is as deterministic as the clean one: retries,
    // backoff charges and quarantines are part of the pinned trace.
    let opts =
        TraceOptions { seed: 1, profile: FaultProfile::Hostile { seed: 7 }, ..Default::default() };
    let trace = quick_tune_trace("j3d7pt", &GpuArch::a100(), &opts);
    check_golden("quick_tune_j3d7pt_a100_hostile", &trace);
}

/// Hand-picked settings that together reach every emission branch of
/// the code generator: shared tiles with and without a streaming window,
/// streaming along each axis, prefetch, the constant table, retiming,
/// cyclic and block merging, and unroll factors at coverage > 1 and 1.
fn emission_settings() -> Vec<(&'static str, Setting)> {
    use ParamId::*;
    let b = Setting::baseline();
    let stream = |sd: u32, tb: ParamId, sb: u32| {
        b.with(UseStreaming, 2)
            .with(SD, sd)
            .with(TBx, 16)
            .with(TBy, 8)
            .with(TBz, 4)
            .with(tb, 1)
            .with(SB, sb)
    };
    let (sx, sy, sz) = (stream(1, TBx, 16), stream(2, TBy, 32), stream(3, TBz, 64));
    vec![
        ("baseline", b),
        ("shared", b.with(UseShared, 2)),
        ("stream_x", sx),
        ("stream_x_shared", sx.with(UseShared, 2)),
        ("stream_y", sy),
        ("stream_y_shared", sy.with(UseShared, 2)),
        ("stream_z", sz),
        ("stream_z_shared", sz.with(UseShared, 2)),
        ("prefetch", sz.with(UsePrefetching, 2)),
        ("prefetch_shared", sz.with(UseShared, 2).with(UsePrefetching, 2)),
        ("prefetch_no_stream", b.with(UsePrefetching, 2)),
        ("constant", b.with(UseConstant, 2)),
        ("retiming", b.with(UseRetiming, 2)),
        ("retiming_constant", b.with(UseRetiming, 2).with(UseConstant, 2)),
        ("cyclic", b.with(CMx, 2).with(CMy, 4)),
        ("cyclic_unroll", b.with(CMz, 2).with(UFz, 2)),
        ("block_merge_unroll", b.with(BMy, 8).with(UFy, 4)),
        ("unroll_coverage_1", b.with(UFx, 2)),
        ("block_and_cyclic", b.with(BMx, 2).with(CMy, 2).with(UFx, 2).with(UFy, 2)),
        (
            "everything",
            sz.with(UseShared, 2)
                .with(UseConstant, 2)
                .with(UseRetiming, 2)
                .with(UsePrefetching, 2)
                .with(BMx, 2)
                .with(UFx, 2)
                .with(CMy, 2),
        ),
    ]
}

#[test]
fn codegen_suite_digest_is_pinned() {
    // The generated CUDA bytes themselves, not just their totals: one
    // line per (stencil, setting) with the source length and its
    // FNV-1a-64, over every kernel of the suite and extensions.
    let mut t = String::new();
    for k in cst_serve::all_stencils() {
        let valid = ValidSpace::new(
            OptSpace::for_stencil(&k.spec),
            GpuSim::new(k.spec.clone(), GpuArch::a100()),
        );
        let seeded = valid_settings(&valid, 17, 3);
        let seeded =
            seeded.iter().enumerate().map(|(i, &s)| (["valid0", "valid1", "valid2"][i], s));
        for (label, s) in emission_settings().into_iter().chain(seeded) {
            let code = cst_codegen::generate_cuda(&k, &s).code;
            let _ = writeln!(
                t,
                "{} {label} len={} fnv={:016x}",
                k.spec.name,
                code.len(),
                fnv1a(code.bytes())
            );
        }
    }
    check_golden("codegen_suite_digest", &t);
}

#[test]
fn model_record_digest_is_pinned() {
    // The model's absolute output, which `precomp_oracle` cannot pin: it
    // compares two paths that read the same constants. Every kernel on
    // every preset, at the baseline plus 8 raw and 8 valid settings drawn
    // from a per-kernel seeded rng. One line per (kernel, arch) with an
    // FNV-1a over the `Debug` text of each setting's record and profile;
    // f64 `Debug` round-trips, so equal text means equal bits.
    let mut t = String::new();
    for k in cst_serve::all_stencils() {
        for arch in [GpuArch::a100(), GpuArch::v100(), GpuArch::small()] {
            let sim = GpuSim::new(k.spec.clone(), arch.clone());
            let space = OptSpace::for_stencil(&k.spec);
            let valid = ValidSpace::new(space.clone(), sim.clone());
            let mut rng = StdRng::seed_from_u64(fnv1a(k.spec.name.bytes()));
            let mut settings = vec![Setting::baseline()];
            settings.extend((0..8).map(|_| space.random_raw(&mut rng)));
            settings.extend((0..8).map(|_| valid.random_valid(&mut rng)));
            let mut text = String::new();
            for s in &settings {
                let _ = write!(text, "{:?}{:?}", sim.evaluate_full(s), sim.profile(s));
            }
            let _ = writeln!(
                t,
                "{} {} settings={} fnv={:016x}",
                k.spec.name,
                arch.name,
                settings.len(),
                fnv1a(text.bytes())
            );
        }
    }
    check_golden("model_record_digest", &t);
}

#[test]
fn valid_draw_digest_is_pinned() {
    // The valid-setting streams every tuner draws from: for every kernel
    // on every preset and two seeds, an FNV-1a over the first 64
    // `random_valid` settings, the rng's next word after them, and an
    // FNV-1a over the settings of a 128-record offline dataset.
    let digest =
        |settings: &[Setting]| fnv1a(settings.iter().flat_map(|s| s.0).flat_map(u32::to_le_bytes));
    let mut t = String::new();
    for k in cst_serve::all_stencils() {
        for arch in [GpuArch::a100(), GpuArch::v100(), GpuArch::small()] {
            for seed in [0, 1] {
                let valid = ValidSpace::new(
                    OptSpace::for_stencil(&k.spec),
                    GpuSim::new(k.spec.clone(), arch.clone()),
                );
                let mut rng = StdRng::seed_from_u64(seed);
                let draws: Vec<Setting> = (0..64).map(|_| valid.random_valid(&mut rng)).collect();
                let mut eval = SimEvaluator::new(k.spec.clone(), arch.clone(), seed)
                    .with_fault_profile(FaultProfile::Off);
                let ds = PerfDataset::collect(&mut eval, 128, seed);
                let records: Vec<Setting> = ds.records.iter().map(|r| r.setting).collect();
                let _ = writeln!(
                    t,
                    "{} {} seed={seed} valid64={:016x} next={:016x} dataset128={:016x}",
                    k.spec.name,
                    arch.name,
                    digest(&draws),
                    rng.next_u64(),
                    digest(&records)
                );
            }
        }
    }
    check_golden("valid_draw_digest", &t);
}

#[test]
fn sampled_space_digest_is_pinned() {
    // The sampling stage at full scale, which the quick fixtures never
    // reach: the default configuration's dataset, groups and scored cut
    // for every paper stencil on both paper GPUs at seed 0. One line per
    // (stencil, arch) with the candidates scored, each group's impact
    // bits, and an FNV-1a over each group's count and kept combos.
    let cfg = CsTunerConfig::default();
    let mut t = String::new();
    for k in cst_stencil::suite::all_kernels() {
        for arch in [GpuArch::a100(), GpuArch::v100()] {
            let mut eval = SimEvaluator::new(k.spec.clone(), arch.clone(), 0)
                .with_fault_profile(FaultProfile::Off);
            let ds = PerfDataset::collect(&mut eval, cfg.dataset_size, 0);
            let groups = group_from_dataset(&ds);
            let reps = select_representatives(&ds, &combine_metrics(&ds, cfg.n_metric_collections));
            let tel = Telemetry::noop();
            let sampled = sample_space(&ds, &groups, &reps, &eval, &cfg.sampling, &tel);
            let impact: Vec<String> = sampled.impact.iter().map(|&x| hex_bits(x)).collect();
            let kept = sampled.combos.iter().flat_map(|group| {
                std::iter::once(group.len() as u32).chain(group.iter().flatten().copied())
            });
            let kept = fnv1a(kept.flat_map(u32::to_le_bytes));
            let _ = writeln!(
                t,
                "{} {} scored={} impact=[{}] kept={kept:016x}",
                k.spec.name,
                arch.name,
                sampled.scored,
                impact.join(",")
            );
        }
    }
    check_golden("sampled_space_digest", &t);
}

#[test]
fn surrogate_digest_is_pinned() {
    // The shared forest surrogate, which no session fixture pins on its
    // own. First Garvey's exact fit (the seed-0 dataset of 128 records
    // and Garvey's rng stream) for every paper stencil on both paper
    // GPUs: an FNV-1a over the bits of each record's score, and the
    // rng's next draw, which pins how many draws the fit took.
    let mut t = String::new();
    for k in cst_stencil::suite::all_kernels() {
        for arch in [GpuArch::a100(), GpuArch::v100()] {
            let mut eval = SimEvaluator::new(k.spec.clone(), arch.clone(), 0)
                .with_fault_profile(FaultProfile::Off);
            let ds = PerfDataset::collect(&mut eval, 128, 0);
            let xs: Vec<Vec<f64>> =
                ds.records.iter().map(|r| r.setting.features().to_vec()).collect();
            let mut rng = StdRng::seed_from_u64(0x6a2_7e1);
            let fit = Surrogate::fit(&xs, &ds.times(), &mut rng).expect("128 records");
            let scores = fnv1a(xs.iter().flat_map(|x| fit.score(x).to_bits().to_le_bytes()));
            let next = rng.gen::<u64>();
            let _ =
                writeln!(t, "{} {} scores={scores:016x} next={next:016x}", k.spec.name, arch.name);
        }
    }
    // Then warm-start ranking over a store of four fixed quick sessions,
    // in each mode: exact, cross-arch both ways, and empty. Targets use
    // the display names the KB records and the daemon passes.
    let dir = std::env::temp_dir().join(format!("cst_surrogate_digest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = JournalStore::open(&dir).unwrap();
    let sessions = [
        ("j3d7pt", "a100", "forest"),
        ("j3d7pt", "a100", "random"),
        ("hypterm", "v100", "anneal"),
        ("hypterm", "v100", "opentuner"),
    ];
    for (stencil, arch, tuner) in sessions {
        let req = TuneRequest::build(
            Some(stencil),
            Some(arch),
            Some(tuner),
            Some(1),
            None,
            true,
            Some(FaultSpec::Off),
        )
        .unwrap();
        let tel = Telemetry::in_memory();
        run_session(&req, &tel, None).expect("session succeeds");
        let lines: Vec<String> =
            tel.lines().expect("in-memory sink").iter().map(|l| strip_wall_fields(l)).collect();
        store.ingest_lines(&format!("{stencil}-{arch}-{tuner}"), &lines).unwrap();
    }
    let kb = KnowledgeBase::build(&store).unwrap().kb;
    let _ = std::fs::remove_dir_all(&dir);
    let (a100, v100) = (GpuArch::a100().name, GpuArch::v100().name);
    for (stencil, arch) in [("j3d7pt", a100), ("j3d7pt", v100), ("hypterm", a100), ("cheby", a100)]
    {
        let w = warm_seeds(&kb, stencil, arch, DEFAULT_TOP_K, 7);
        let _ = writeln!(
            t,
            "warm {stencil} {arch} mode={} n_train={} candidates={}",
            w.mode, w.n_train, w.candidates
        );
        for s in &w.seeds {
            let _ = writeln!(t, "  {s}");
        }
    }
    check_golden("surrogate_digest", &t);
}

/// Feature values whose midpoints tie, round onto the upper value (1.0 +
/// ε steps), overflow (±MAX, ±0.75 MAX) or are NaN (-inf next to +inf),
/// and zeros of both signs and subnormals.
const EDGE_VALUES: [f64; 17] = [
    f64::NEG_INFINITY,
    -f64::MAX,
    -0.75 * f64::MAX,
    -1.0,
    -5e-324,
    -0.0,
    0.0,
    5e-324,
    1e-323,
    1.0,
    1.0 + f64::EPSILON,
    1.0 + 2.0 * f64::EPSILON,
    1.0 + 3.0 * f64::EPSILON,
    2.0,
    0.75 * f64::MAX,
    f64::MAX,
    f64::INFINITY,
];

#[test]
fn surrogate_edge_digest_is_pinned() {
    // The surrogate on adversarial data, where `cst-ml`'s own oracle
    // shares the code's reading of every tie. Each case draws 2-200 rows
    // of 1, 19 or 31 features; each feature takes a few small integers
    // (ties), a random handful of `EDGE_VALUES`, or a continuum. Times
    // take a few levels (ties across the q30 cut), a few levels plus
    // infinite penalties, or a continuum. One line per case: an FNV-1a
    // over the bits of the score of every training row and of one probe
    // row per edge value, and the rng's next draw.
    let mut t = String::new();
    for case in 0..96u64 {
        let mut r = StdRng::seed_from_u64(case);
        let n_rows = match case {
            0 => 2,
            1 => 200,
            _ => r.gen_range(2..201),
        };
        let n_features = [1, 19, 31][case as usize % 3];
        let columns: Vec<Vec<f64>> = (0..n_features)
            .map(|_| match r.gen_range(0..3) {
                0 => {
                    let k = r.gen_range(1..6);
                    (0..n_rows).map(|_| r.gen_range(0..k) as f64).collect()
                }
                1 => {
                    let k: usize = r.gen_range(2..7);
                    let pick: Vec<f64> =
                        (0..k).map(|_| EDGE_VALUES[r.gen_range(0..EDGE_VALUES.len())]).collect();
                    (0..n_rows).map(|_| pick[r.gen_range(0..k)]).collect()
                }
                _ => (0..n_rows).map(|_| r.gen_range(-4.0..4.0)).collect(),
            })
            .collect();
        let xs: Vec<Vec<f64>> =
            (0..n_rows).map(|i| columns.iter().map(|c| c[i]).collect()).collect();
        let times: Vec<f64> = match r.gen_range(0..3) {
            0 => {
                let levels = r.gen_range(1..5);
                (0..n_rows).map(|_| 1.0 + r.gen_range(0..levels) as f64).collect()
            }
            1 => {
                let levels = r.gen_range(1..4);
                (0..n_rows)
                    .map(|_| match r.gen_range(0..levels + 1) {
                        0 => f64::INFINITY,
                        l => l as f64,
                    })
                    .collect()
            }
            _ => (0..n_rows).map(|_| r.gen_range(0.5..5.0)).collect(),
        };
        let fit = Surrogate::fit(&xs, &times, &mut r).expect("at least two rows");
        let probes = EDGE_VALUES.iter().map(|&v| vec![v; n_features]);
        let scores = fnv1a(
            xs.iter().cloned().chain(probes).flat_map(|x| fit.score(&x).to_bits().to_le_bytes()),
        );
        let next = r.gen::<u64>();
        let _ = writeln!(
            t,
            "case {case} rows={n_rows} features={n_features} scores={scores:016x} next={next:016x}"
        );
    }
    check_golden("surrogate_edge_digest", &t);
}

#[test]
fn experiment_harness_digest_is_pinned() {
    // Every seeded experiment's protocol through the one harness, on two
    // stencils on the A100 at seed 0: the paper's four tuners at 4
    // iso-iterations and at a 30 s iso-time budget, csTuner at two
    // sampling ratios, and the five ablation variants. One line per run:
    // its best and search time bits, its evaluation count and an FNV-1a
    // over its curve's bits. The harness's evaluators follow the ambient
    // fault profile, as `experiments` does; this digest pins the
    // fault-free protocol on both CI legs, and no other test in this
    // binary reads that profile.
    std::env::remove_var("CST_FAULT_SEED");
    let specs = ["j3d7pt", "cheby"].map(|s| cst_stencil::spec_by_name(s).unwrap());
    let a100 = GpuArch::a100();
    let paper = |iterations, budget_s| {
        sweep(&specs, &PAPER, 1, |s, &flag, seed| {
            run(s, &a100, tuner(flag, iterations).as_mut(), budget_s, seed)
        })
    };
    let cstuner =
        |s: &StencilSpec, cfg, seed| run(s, &a100, &mut CsTuner::new(cfg), Some(30.0), seed);
    let ratios = [0.05, 0.5];
    let ratio_runs = sweep(&specs, &ratios, 1, |s, &ratio, seed| {
        let mut cfg = CsTunerConfig::default();
        cfg.sampling.ratio = ratio;
        cstuner(s, cfg, seed)
    });
    let ablation_runs = sweep(&specs, &ABLATION, 1, |s, (_, edit), seed| {
        let mut cfg = CsTunerConfig::default();
        edit(&mut cfg);
        cstuner(s, cfg, seed)
    });
    let mut t = String::new();
    let mut line = |label: String, r: &RunResult| {
        let curve = fnv1a(r.curve.iter().flat_map(|&(i, e, b)| {
            [u64::from(i), e.to_bits(), b.to_bits()].into_iter().flat_map(u64::to_le_bytes)
        }));
        let _ = writeln!(
            t,
            "{} {label} best={} search={} evals={} curve={curve:016x}",
            r.stencil,
            hex_bits(r.best_ms),
            hex_bits(r.search_s),
            r.evaluations
        );
    };
    for r in paper(4, None) {
        line(format!("iso-iteration {}", r.tuner), &r);
    }
    for r in paper(u32::MAX, Some(30.0)) {
        line(format!("iso-time {}", r.tuner), &r);
    }
    for (r, ratio) in ratio_runs.iter().zip(ratios.iter().cycle()) {
        line(format!("ratio {ratio}"), r);
    }
    for (r, (name, _)) in ablation_runs.iter().zip(ABLATION.iter().cycle()) {
        line(format!("ablation {name}"), r);
    }
    check_golden("experiment_harness_digest", &t);
}
