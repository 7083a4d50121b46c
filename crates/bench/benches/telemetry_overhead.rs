//! Telemetry overhead on the evaluation hot path.
//!
//! The telemetry contract promises that the disabled (noop) handle costs
//! nothing measurable on the hot path — every counter/event call must
//! early-return before allocating. This bench pins that promise: the
//! same evaluation loop runs with the noop handle, with an in-memory
//! journal, and with a live JSONL file sink. The noop column must stay
//! within 5% of the untelemetered baseline (BENCH_eval.json records the
//! measured numbers).
//!
//! `json-parse` times the JSON reader every archive, summary, wire frame
//! and campaign spec goes through, on a ~100 KB document shaped like a
//! warm-start `kb.json`. It prints the document size so the row converts
//! to MB/s.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use cst_gpu_sim::GpuArch;
use cst_space::Setting;
use cst_stencil::suite;
use cst_telemetry::{json, Telemetry};
use cstuner_core::{Evaluator, SimEvaluator};
use std::hint::black_box;

fn population(seed: u64, n: usize) -> (SimEvaluator, Vec<Setting>) {
    let spec = suite::spec_by_name("rhs4center").unwrap();
    let mut drawer = SimEvaluator::new(spec.clone(), GpuArch::a100(), seed);
    let pop: Vec<Setting> = (0..n).map(|_| drawer.random_valid()).collect();
    (SimEvaluator::new(spec, GpuArch::a100(), seed), pop)
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry-overhead");
    g.sample_size(20);
    let n = 64usize;
    let run = |tel: Telemetry| {
        move |b: &mut criterion::Bencher| {
            b.iter_batched(
                || {
                    let (mut e, pop) = population(9, n);
                    e.set_telemetry(&tel);
                    (e, pop)
                },
                |(mut e, pop)| {
                    let out: Vec<f64> = pop.iter().map(|s| e.evaluate(s)).collect();
                    black_box(out)
                },
                BatchSize::SmallInput,
            )
        }
    };
    g.bench_function("eval64/noop", run(Telemetry::noop()));
    g.bench_function("eval64/in_memory", run(Telemetry::in_memory()));
    let path = std::env::temp_dir().join("cst_telemetry_overhead_bench.jsonl");
    g.bench_function("eval64/jsonl", run(Telemetry::to_file(&path).expect("temp journal")));
    let _ = std::fs::remove_file(&path);
    g.finish();
}

/// A `kb.json`-shaped document (`{"kb_version":1,"records":[...]}`)
/// of about `bytes` bytes, written through the workspace's JSON writer.
fn kb_document(bytes: usize) -> String {
    let (stencils, archs) = (["j3d7pt", "rhs4center", "helmholtz"], ["a100", "v100"]);
    let setting = Setting::baseline().to_string();
    let mut doc = String::from("{\"kb_version\":1,\"records\":[");
    for i in 0.. {
        if doc.len() >= bytes {
            break;
        }
        if i > 0 {
            doc.push(',');
        }
        doc.push_str("{\"stencil\":");
        json::write_escaped(&mut doc, stencils[i % stencils.len()]);
        doc.push_str(",\"arch\":");
        json::write_escaped(&mut doc, archs[i % archs.len()]);
        doc.push_str(",\"setting\":");
        json::write_escaped(&mut doc, &setting);
        doc.push_str(",\"time_ms\":");
        json::write_f64(&mut doc, 0.125 + i as f64 * 1e-3);
        doc.push_str(",\"source\":");
        json::write_escaped(&mut doc, &format!("j3d7pt-a100-csTuner-s{i}"));
        doc.push_str(",\"origin\":");
        json::write_escaped(
            &mut doc,
            &format!("{:016x}", (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        doc.push('}');
    }
    doc.push_str("]}");
    doc
}

fn bench_json_parse(c: &mut Criterion) {
    let doc = kb_document(100_000);
    json::parse(&doc).expect("the bench document parses");
    println!("json-parse document: {} bytes", doc.len());
    let mut g = c.benchmark_group("json-parse");
    g.sample_size(20);
    g.bench_function("kb100k", |b| b.iter(|| json::parse(black_box(&doc))));
    g.finish();
}

criterion_group!(benches, bench_telemetry_overhead, bench_json_parse);
criterion_main!(benches);
