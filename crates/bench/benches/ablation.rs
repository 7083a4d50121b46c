//! Ablation benchmarks: how much tuning quality each csTuner design
//! choice buys, measured as the best kernel time found under a fixed small
//! budget (lower is better). Criterion measures the *wall* cost of each
//! variant; the quality numbers print alongside via the experiment binary
//! (`experiments -- ablation`).
//!
//! The variants are the harness's [`ABLATION`] table (DESIGN.md
//! "Ablations"), applied here to a smaller base configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use cst_bench::runners::{run, ABLATION};
use cst_gpu_sim::GpuArch;
use cst_stencil::suite;
use cstuner_core::{CsTuner, CsTunerConfig};
use std::hint::black_box;

fn bench_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    for (name, edit) in ABLATION {
        g.bench_function(format!("cheby_30s/{name}"), |b| {
            b.iter(|| {
                let spec = suite::spec_by_name("cheby").unwrap();
                let mut cfg =
                    CsTunerConfig { dataset_size: 48, codegen_cap: 8, ..Default::default() };
                edit(&mut cfg);
                let r = run(&spec, &GpuArch::a100(), &mut CsTuner::new(cfg), Some(30.0), 1);
                black_box(r.best_ms)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
