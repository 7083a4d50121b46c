//! The in-process workloads: `run_session` called directly, as `cstuner
//! tune` and the campaign runner's in-process backend call it.
//!
//! A traced run executes every request three ways, rotating which goes
//! first so none always meets a warm simulator memo: plain (as the
//! untraced run does), traced (the same steps called from here, each
//! layer timed), and plain with the journal switched the other way.
//! All three must produce the same outcome bit for bit.

use crate::common::{cap_round, check_all, peak_rss_kb, Collected, Ctx, Outcome, Sample};
use crate::gen;
use crate::stats::{mean, median};
use crate::trace::{layer_totals, TimedEvaluator, Tracer};
use cst_gpu_sim::registry::shared_memo_stats;
use cst_gpu_sim::GpuArch;
use cst_serve::{build_tuner, find_stencil, run_session, TuneRequest};
use cst_space::Setting;
use cst_stencil::StencilKernel;
use cst_telemetry::{Field, FieldValue, Telemetry};
use cstuner_core::search::{evolutionary_search, SearchConfig};
use cstuner_core::{
    combine_metrics, group_from_dataset, journal_outcome, sample_space, select_representatives,
    CsTunerConfig, Evaluator, PerfDataset, SimEvaluator, TuneError, TuningOutcome,
};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// csTuner at full scale, no journal (a plain `cstuner tune`).
    CsTunerFull,
    /// The zoo at quick scale with an in-memory journal (`--journal`,
    /// campaign cells).
    ZooQuick,
}

impl Kind {
    fn requests(self, seed: u64, round: u64) -> Vec<TuneRequest> {
        match self {
            Kind::CsTunerFull => gen::cstuner_full(seed, round),
            Kind::ZooQuick => gen::zoo_quick(seed, round),
        }
    }

    fn journals(self) -> bool {
        self == Kind::ZooQuick
    }
}

fn telemetry(journal: bool) -> Telemetry {
    if journal {
        Telemetry::in_memory()
    } else {
        Telemetry::noop()
    }
}

/// Set-ups timed at the start of each round; the round's sample is
/// their median. Spreading the samples over the run matters more than
/// their number: on the reference host set-up time moves by up to 60%
/// between machine states that last a second or more.
const SETUP_REPEATS: usize = 5;

/// Set-up: what a process does before its first session can start —
/// resolve every (stencil, arch) the workload uses into an evaluator
/// with its shared memo and baseline time, and build every tuner.
fn setup(kind: Kind, seed: u64) -> f64 {
    let t = Instant::now();
    let reqs = kind.requests(seed, 0);
    let mut pairs = BTreeSet::new();
    let mut tuners = BTreeSet::new();
    for r in &reqs {
        if pairs.insert((r.stencil.as_str(), r.arch.as_str())) {
            let k = find_stencil(&r.stencil).expect("validated stencil");
            let arch = GpuArch::by_name(&r.arch).expect("validated arch");
            let mut e = SimEvaluator::with_budget(k.spec, arch, r.seed, r.budget_s);
            e.enable_shared_memo();
            black_box(e.sim().kernel_time_ms(&Setting::baseline()));
        }
        if tuners.insert(r.tuner.as_str()) {
            black_box(build_tuner(&r.tuner, r.quick));
        }
    }
    t.elapsed().as_secs_f64()
}

/// One plain session: latency in ms, outcome, and (records, bytes) of
/// the journal when one was kept.
fn plain(req: &TuneRequest, journal: bool) -> Result<(f64, Outcome, (f64, f64)), String> {
    let tel = telemetry(journal);
    let t = Instant::now();
    let out = run_session(req, &tel, None).map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let lines = tel.lines().unwrap_or_default();
    let bytes = lines.iter().map(|l| l.len() + 1).sum::<usize>();
    Ok((ms, Outcome::of(&out), (lines.len() as f64, bytes as f64)))
}

/// Sums of per-session counts in a traced run.
type Counts = BTreeMap<&'static str, f64>;

fn bump(counts: &mut Counts, key: &'static str, v: f64) {
    *counts.entry(key).or_default() += v;
}

/// `run_session`'s steps, called from here with every layer timed. For
/// csTuner the pipeline's stages are called one by one as
/// `CsTuner::tune` calls them.
fn traced(
    req: &TuneRequest,
    journal: bool,
    tr: &mut Tracer,
    id: u64,
    counts: &mut Counts,
) -> Result<(f64, Outcome), String> {
    let tel = telemetry(journal);
    let root = tr.open("session", 0, id);
    let kernel = find_stencil(&req.stencil).expect("validated stencil");
    let arch = GpuArch::by_name(&req.arch).expect("validated arch");
    let mut tuner = build_tuner(&req.tuner, req.quick).expect("validated tuner");
    tel.meta(&[
        Field::new("stencil", FieldValue::from(kernel.spec.name)),
        Field::new("arch", FieldValue::from(arch.name)),
        Field::new("tuner", FieldValue::from(&req.tuner)),
        Field::new("seed", FieldValue::from(req.seed)),
        Field::new("budget_s", FieldValue::from(req.budget_s)),
    ]);
    let mut eval =
        SimEvaluator::with_budget(kernel.spec.clone(), arch.clone(), req.seed, req.budget_s);
    if let Some(spec) = req.fault {
        eval = eval.with_fault_profile(spec.profile());
    }
    eval.enable_shared_memo();
    eval.set_telemetry(&tel);
    let baseline_ms = eval.sim().kernel_time_ms(&Setting::baseline());
    let mut ev = TimedEvaluator::new(&mut eval);
    let outcome = if req.tuner == "cstuner" {
        staged(&mut ev, &kernel, req.seed, &tel, tr, root, id, counts)
    } else {
        let name = format!("tuner.{}", req.tuner);
        let sp = tr.open(&name, root, id);
        let out = tuner.tune_with_telemetry(&mut ev, req.seed, &tel);
        ev.flush(tr, sp, id);
        tr.close(sp);
        out
    }
    .map_err(|e| e.to_string())?;
    bump(counts, "evaluator.calls", ev.attempted() as f64);
    bump(counts, "evaluator.unique", ev.unique_evaluations() as f64);
    journal_outcome(&tel, &outcome);
    tel.finish(outcome.search_s);
    let ms = tr.close(root);
    let o = Outcome {
        best_ms: outcome.best_time_ms,
        baseline_ms,
        setting: outcome.best_setting.to_string(),
        evaluations: outcome.evaluations,
    };
    Ok((ms, o))
}

/// `CsTuner::tune` at full scale, stage by stage. The configuration is
/// the zoo's full-scale one; the bit-identity check against the plain
/// run rejects the trace if the two ever drift apart.
#[allow(clippy::too_many_arguments)]
fn staged(
    ev: &mut TimedEvaluator<'_>,
    kernel: &StencilKernel,
    seed: u64,
    tel: &Telemetry,
    tr: &mut Tracer,
    parent: u64,
    id: u64,
    counts: &mut Counts,
) -> Result<TuningOutcome, TuneError> {
    let cfg = CsTunerConfig::default();

    let sp = tr.open("core.dataset", parent, id);
    let dataset = PerfDataset::collect(ev, cfg.dataset_size, seed);
    ev.flush(tr, sp, id);
    tr.close(sp);
    bump(counts, "core.dataset.records", dataset.records.len() as f64);

    let sp = tr.open("core.grouping", parent, id);
    let groups = group_from_dataset(&dataset);
    tr.close(sp);

    let sp = tr.open("core.metric_comb", parent, id);
    let reps =
        select_representatives(&dataset, &combine_metrics(&dataset, cfg.n_metric_collections));
    tr.close(sp);

    let sp = tr.open("core.sampling", parent, id);
    let sampled = sample_space(&dataset, &groups, &reps, ev, &cfg.sampling, tel);
    ev.flush(tr, sp, id);
    tr.close(sp);
    bump(counts, "core.sampling.scored", sampled.scored as f64);

    let sp = tr.open("codegen", parent, id);
    let (mut bytes, mut kernels) = (0usize, 0usize);
    'outer: for (k, combos) in sampled.combos.iter().enumerate() {
        for combo in combos {
            if kernels == cfg.codegen_cap {
                break 'outer;
            }
            let mut s = sampled.base;
            for (&p, &v) in sampled.groups[k].iter().zip(combo) {
                s.set(p, v);
            }
            bytes += cst_codegen::generate_cuda(kernel, &s).code.len();
            kernels += 1;
        }
    }
    tr.close(sp);
    bump(counts, "codegen.bytes", bytes as f64);
    bump(counts, "codegen.kernels", kernels as f64);

    if ev.expired() {
        return Err(TuneError::BudgetTooSmall);
    }
    let search_cfg = SearchConfig {
        ga: cfg.ga,
        top_n: cfg.top_n,
        cv_threshold: cfg.cv_threshold,
        max_iterations: cfg.max_iterations,
    };
    let sp = tr.open("core.search", parent, id);
    let result = evolutionary_search(ev, &sampled, &search_cfg, seed, tel);
    ev.flush(tr, sp, id);
    tr.close(sp);
    bump(counts, "core.search.iterations", result.iterations as f64);
    if !result.best_ms.is_finite() {
        return Err(TuneError::EmptySpace);
    }
    Ok(TuningOutcome {
        tuner: "csTuner",
        best_setting: result.best_setting,
        best_time_ms: result.best_ms,
        curve: result.curve,
        evaluations: ev.unique_evaluations(),
        search_s: ev.clock().now_s(),
        preproc: Default::default(),
        faults: ev.fault_stats(),
    })
}

/// (hits, misses, entries) summed over the process's shared memos.
fn memo_totals() -> (f64, f64, f64) {
    shared_memo_stats().iter().fold((0.0, 0.0, 0.0), |(h, m, e), s| {
        (h + s.hits as f64, m + s.misses as f64, e + s.entries as f64)
    })
}

/// What a traced run accumulates beyond the samples.
#[derive(Default)]
struct Lab {
    traced_ms: Vec<f64>,
    journal_ms: Vec<f64>,
    journal_records: Vec<f64>,
    journal_bytes: Vec<f64>,
    memo_hits: f64,
    memo_lookups: f64,
    counts: Counts,
}

/// Run an in-process workload.
pub fn run(kind: Kind, ctx: &Ctx) -> Result<Collected, String> {
    let mut c = Collected::default();
    let journal = kind.journals();
    let mut lab = Lab::default();
    let mut tr = Tracer::new(Instant::now(), 0);
    let start = Instant::now();
    let mut setup_total = 0.0;
    let mut id = 0u64;
    let mut round = 0u64;
    while round == 0 || start.elapsed().as_secs_f64() - setup_total < ctx.seconds {
        let t = Instant::now();
        let repeats: Vec<f64> = (0..SETUP_REPEATS).map(|_| setup(kind, ctx.seed)).collect();
        c.setup_s.push(median(&repeats));
        setup_total += t.elapsed().as_secs_f64();
        for (idx, req) in cap_round(kind.requests(ctx.seed, round)).into_iter().enumerate() {
            c.speed.tick();
            c.attempted += 1;
            id += 1;
            let what = format!("round {round} request {idx} ({})", gen::identity(&req));
            let at = Instant::now();
            let res = if ctx.trace {
                traced_request(&req, journal, &mut tr, id, &mut lab)
            } else {
                plain(&req, journal).map(|(ms, o, _)| (ms, o))
            };
            match res {
                Ok((ms, outcome)) => {
                    c.samples.push(Sample { round: round as usize, idx, req, at, ms, outcome })
                }
                Err(e) => c.fail(format!("{what}: {e}")),
            }
        }
        if round == 0 {
            c.peak_rss_kb = peak_rss_kb();
        }
        round += 1;
    }
    c.measured_s = start.elapsed().as_secs_f64() - setup_total - c.speed.spent_s;

    // Output checks, outside the measured time.
    check_all(&mut c);
    if !ctx.trace {
        // Determinism: the first two requests again, bit for bit.
        for s in c.samples.iter().filter(|s| s.round == 0 && s.idx < 2).cloned().collect::<Vec<_>>()
        {
            match plain(&s.req, journal) {
                Ok((_, o, _)) if o.same_bits(&s.outcome) => {}
                Ok((_, o, _)) => {
                    c.fail(format!("request {} replayed to {o:?}, not {:?}", s.idx, s.outcome))
                }
                Err(e) => c.fail(format!("request {} replay failed: {e}", s.idx)),
            }
        }
    } else {
        let plain_ms: Vec<f64> = c.samples.iter().map(|s| s.ms).collect();
        c.layers.insert("trace.overhead_ms", median(&lab.traced_ms) - median(&plain_ms));
        layers(&mut c, &tr, &lab, kind);
        c.spans = tr.spans;
    }
    Ok(c)
}

/// One request of a traced run: the three variants, in one of six orders.
/// Returns the plain variant's sample.
fn traced_request(
    req: &TuneRequest,
    journal: bool,
    tr: &mut Tracer,
    id: u64,
    lab: &mut Lab,
) -> Result<(f64, Outcome), String> {
    // All six orders in turn: each variant runs before each other one
    // equally often, so warm-cache effects cancel in the differences.
    const ORDERS: [[u8; 3]; 6] = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    let mut plain_run = None;
    let mut traced_run = None;
    let mut other_run = None;
    for (k, variant) in ORDERS[(id % 6) as usize].into_iter().enumerate() {
        let before = if k == 0 { Some(memo_totals()) } else { None };
        match variant {
            0 => plain_run = Some(plain(req, journal)?),
            1 => traced_run = Some(traced(req, journal, tr, id, &mut lab.counts)?),
            _ => other_run = Some(plain(req, !journal)?),
        }
        if let Some((h0, m0, _)) = before {
            let (h1, m1, _) = memo_totals();
            lab.memo_hits += h1 - h0;
            lab.memo_lookups += (h1 - h0) + (m1 - m0);
        }
    }
    let (p_ms, p_out, p_journal) = plain_run.expect("ran");
    let (t_ms, t_out) = traced_run.expect("ran");
    let (o_ms, o_out, o_journal) = other_run.expect("ran");
    for (what, o) in [("traced", &t_out), ("journal-toggled", &o_out)] {
        if !o.same_bits(&p_out) {
            return Err(format!("{what} run gave {o:?}, plain run {p_out:?}"));
        }
    }
    lab.traced_ms.push(t_ms);
    let (with, without, size) =
        if journal { (p_ms, o_ms, p_journal) } else { (o_ms, p_ms, o_journal) };
    lab.journal_ms.push(with - without);
    lab.journal_records.push(size.0);
    lab.journal_bytes.push(size.1);
    Ok((p_ms, p_out))
}

/// Per-layer metrics of a traced in-process run.
fn layers(c: &mut Collected, tr: &Tracer, lab: &Lab, kind: Kind) {
    let totals = layer_totals(&tr.spans);
    let sessions = totals.get("session").map(|t| t.spans as f64).unwrap_or(0.0).max(1.0);
    let session_ms = totals.get("session").map(|t| t.total_ms).unwrap_or(0.0);
    let total = |name: &str| totals.get(name).map(|t| t.total_ms).unwrap_or(0.0);
    let per_session = |name: &str| total(name) / sessions;
    let count = |key: &str| lab.counts.get(key).copied().unwrap_or(0.0) / sessions;
    let l = &mut c.layers;

    if kind == Kind::CsTunerFull {
        let stages = [
            "core.dataset",
            "core.grouping",
            "core.metric_comb",
            "core.sampling",
            "codegen",
            "core.search",
        ];
        for (stage, key) in stages.iter().zip([
            "core.dataset.ms",
            "core.grouping.ms",
            "core.metric_comb.ms",
            "core.sampling.ms",
            "codegen.ms",
            "core.search.ms",
        ]) {
            l.insert(key, per_session(stage));
        }
        l.insert("core.sampling.share", total("core.sampling") / session_ms);
        l.insert("core.stage_coverage", stages.iter().map(|s| total(s)).sum::<f64>() / session_ms);
        for key in [
            "core.dataset.records",
            "core.sampling.scored",
            "codegen.bytes",
            "codegen.kernels",
            "core.search.iterations",
        ] {
            l.insert(key, count(key));
        }
    }
    for flag in gen::ZOO {
        let t = totals.get(&format!("tuner.{flag}")).copied().unwrap_or_default();
        let n = (t.spans as f64).max(1.0);
        l.insert(tuner_key(flag, false), t.total_ms / n);
        l.insert(tuner_key(flag, true), t.self_ms / n);
    }
    let eval_ms: f64 =
        totals.iter().filter(|(k, _)| k.starts_with("evaluator.")).map(|(_, t)| t.total_ms).sum();
    let calls = count("evaluator.calls");
    l.insert("evaluator.calls", calls);
    l.insert("evaluator.ms", eval_ms / sessions);
    l.insert("evaluator.unique", count("evaluator.unique"));
    l.insert(
        "evaluator.hit_ratio",
        if calls > 0.0 { 1.0 - count("evaluator.unique") / calls } else { 0.0 },
    );
    l.insert("evaluator.share", eval_ms / session_ms);
    l.insert("telemetry.journal_ms", mean(&lab.journal_ms));
    l.insert("telemetry.records", mean(&lab.journal_records));
    l.insert("telemetry.bytes", mean(&lab.journal_bytes));
    l.insert(
        "gpu_sim.memo.hit_ratio",
        if lab.memo_lookups > 0.0 { lab.memo_hits / lab.memo_lookups } else { 0.0 },
    );
    l.insert("gpu_sim.memo.entries", memo_totals().2);
    l.insert("trace.sessions", lab.traced_ms.len() as f64);
}

/// `tuner.<flag>.ms` / `tuner.<flag>.self_ms` as the static names the
/// metric table uses.
fn tuner_key(flag: &str, self_time: bool) -> &'static str {
    let name = format!("tuner.{flag}.{}", if self_time { "self_ms" } else { "ms" });
    crate::PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .expect("every zoo tuner has its two metrics in the table")
}
