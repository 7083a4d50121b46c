//! Micro-benchmarks of the evaluation hot path: the validity check, which
//! runs the footprint stage alone, and the full model record with and
//! without the shared memo (a cache hit must be far cheaper than a
//! recompute).

use criterion::{criterion_group, criterion_main, Criterion};
use cst_gpu_sim::{GpuArch, GpuSim, ValidSpace};
use cst_space::{OptSpace, Setting};
use cst_stencil::suite;
use std::hint::black_box;

fn bench_footprint_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("eval-hot-path");
    let spec = suite::spec_by_name("rhs4center").unwrap();
    let mut cached = GpuSim::new(spec.clone(), GpuArch::a100());
    cached.enable_shared_memo();
    let uncached = cached.clone().without_memo();
    let valid = ValidSpace::new(OptSpace::for_stencil(&spec), uncached.clone());
    let s = Setting::baseline();
    g.bench_function("check", |b| b.iter(|| black_box(valid.check(black_box(&s)))));
    // Warm the cache once so the cached variant measures pure hits.
    let _ = cached.evaluate_full(&s);
    g.bench_function("record/memo_hit", |b| {
        b.iter(|| black_box(cached.evaluate_full(black_box(&s))))
    });
    g.bench_function("record/uncached", |b| {
        b.iter(|| black_box(uncached.evaluate_full(black_box(&s))))
    });
    // What the evaluator does for one fresh candidate: the validity
    // check, then one record for its time and clock charge.
    g.bench_function("check+record/uncached", |b| {
        b.iter(|| {
            black_box(valid.check(black_box(&s)).is_ok());
            black_box(uncached.evaluate_full(black_box(&s)));
        })
    });
    g.finish();
}

criterion_group!(benches, bench_footprint_cost);
criterion_main!(benches);
