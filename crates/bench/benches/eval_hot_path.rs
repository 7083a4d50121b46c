//! Micro-benchmarks of the evaluation hot path: the per-call cost of a
//! footprint/cost-model evaluation with and without the simulator's
//! shared memo (a cache hit must be far cheaper than a recompute — the
//! hot path queries the same record for validity, measurement and clock
//! charge).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use cst_gpu_sim::{GpuArch, GpuSim};
use cst_space::Setting;
use cst_stencil::suite;
use std::hint::black_box;

fn bench_footprint_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("eval-hot-path");
    let spec = suite::spec_by_name("rhs4center").unwrap();
    let cached = GpuSim::new(spec.clone(), GpuArch::a100());
    let uncached = GpuSim::new(spec, GpuArch::a100()).without_memo();
    let s = Setting::baseline();
    // Warm the cache once so the cached variant measures pure hits.
    let _ = cached.evaluate_full(&s);
    g.bench_function("record/memo_hit", |b| {
        b.iter(|| black_box(cached.evaluate_full(black_box(&s))))
    });
    g.bench_function("record/uncached", |b| {
        b.iter(|| black_box(uncached.evaluate_full(black_box(&s))))
    });
    // The full validity → measure → clock-charge triple for one fresh
    // setting: with the memo this computes one record, without it three.
    g.bench_function("triple/memoized", |b| {
        b.iter_batched(
            || GpuSim::new(suite::spec_by_name("rhs4center").unwrap(), GpuArch::a100()),
            |sim| {
                black_box(sim.resource_ok(&s));
                black_box(sim.kernel_time_ms(&s));
                black_box(sim.eval_cost_s(&s));
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("triple/uncached", |b| {
        b.iter(|| {
            black_box(uncached.resource_ok(&s));
            black_box(uncached.kernel_time_ms(&s));
            black_box(uncached.eval_cost_s(&s));
        })
    });
    g.finish();
}

criterion_group!(benches, bench_footprint_cost);
criterion_main!(benches);
